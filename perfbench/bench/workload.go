// Package bench is the mediator benchmark: a mediator process that
// hosts one fleet unit on loopback TCP, and a driver process that holds
// the releases and the load generator. See README.md for the workloads
// and the layer → metric → workload map.
package bench

import (
	"bytes"
	"fmt"
	"strconv"

	"wsupgrade/internal/xrand"
)

// Workload describes one benchmark traffic mix.
type Workload struct {
	// Name is the workload's command-line name.
	Name string
	// Protocol is the unit's wire protocol: "soap" or "json".
	Protocol string
	// Releases is the number of deployed releases.
	Releases int
	// Phase is the unit's lifecycle phase for the whole run.
	Phase string
	// Targets is how many releases each demand calls in Phase.
	Targets int
	// CorruptRate makes the newest release corrupt this share of its
	// replies (faulty.Corrupt); 0 keeps every release faultless.
	CorruptRate float64
	// PadMin and PadMax bound the seeded padding appended to param2
	// (0 keeps envelopes small).
	PadMin, PadMax int
	// Rate is the open-loop segment's fixed demand rate (demands/s),
	// about a third of the closed-loop capacity on a 2-vCPU Xeon.
	Rate float64
}

// Workloads lists the benchmark's workloads by name.
var Workloads = map[string]Workload{
	"fastpath": {
		Name: "fastpath", Protocol: "soap", Releases: 2, Phase: "old-only", Targets: 1,
		Rate: 1100,
	},
	"campaign": {
		Name: "campaign", Protocol: "soap", Releases: 2, Phase: "observation", Targets: 2,
		CorruptRate: 0.05, Rate: 220,
	},
	"bulk-json": {
		Name: "bulk-json", Protocol: "json", Releases: 3, Phase: "parallel", Targets: 3,
		PadMin: 4 << 10, PadMax: 64 << 10, Rate: 240,
	},
}

// Versions returns the release version names, oldest first.
func (w Workload) Versions() []string {
	out := make([]string, w.Releases)
	for i := range out {
		out[i] = fmt.Sprintf("1.%d", i)
	}
	return out
}

// ---------------------------------------------------------------------------
// Demand identifiers

// The demand ID travels in param2, which every release echoes, so the
// codec, oracle, adjudicator, release and client all see it. It is
// written in letters only ("zq" and 12 letters a–p, one per hex digit):
// faulty.Corrupt rewrites the first digit of a reply's text, which must
// land in the answer, not in the ID.
const (
	idPrefix = "zq"
	idDigits = 12
	idLen    = len(idPrefix) + idDigits
)

// appendID appends the letter form of id.
func appendID(dst []byte, id uint64) []byte {
	dst = append(dst, idPrefix...)
	for k := idDigits - 1; k >= 0; k-- {
		dst = append(dst, byte('a'+(id>>(4*uint(k)))&15))
	}
	return dst
}

// FindID returns the first demand ID written in b, or 0.
func FindID(b []byte) uint64 {
	for off := 0; ; {
		i := bytes.Index(b[off:], []byte(idPrefix))
		if i < 0 {
			return 0
		}
		i += off
		if id, ok := parseID(b[i:]); ok {
			return id
		}
		off = i + 1
	}
}

// ParseIDString parses an ID in its letter form.
func ParseIDString(s string) uint64 {
	id, _ := parseID([]byte(s))
	return id
}

func parseID(b []byte) (uint64, bool) {
	if len(b) < idLen || string(b[:len(idPrefix)]) != idPrefix {
		return 0, false
	}
	var id uint64
	for _, c := range b[len(idPrefix):idLen] {
		if c < 'a' || c > 'p' {
			return 0, false
		}
		id = id<<4 | uint64(c-'a')
	}
	return id, true
}

// ---------------------------------------------------------------------------
// Demands

// Demand is one generated consumer demand.
type Demand struct {
	// ID identifies the demand in every span.
	ID uint64
	// Body is the request body as sent.
	Body []byte
	// Want is the correct Op1Result: param2 + "/" + 2*param1.
	Want []byte
}

// Generator produces a workload's seeded demand stream. It is not safe
// for concurrent use; each connection owns one.
type Generator struct {
	w    Workload
	rng  *xrand.Rand
	next uint64
	pad  []byte
}

// NewGenerator returns the demand stream for one (seed, stream) pair.
// IDs of stream s start at s<<40, so concurrent streams never collide.
func NewGenerator(w Workload, seed uint64, stream int) *Generator {
	g := &Generator{
		w:    w,
		rng:  xrand.New(seed*1_000_003 + uint64(stream)),
		next: uint64(stream)<<40 + 1,
	}
	if w.PadMax > 0 {
		g.pad = bytes.Repeat([]byte{'x'}, w.PadMax)
	}
	return g
}

// Next returns the stream's next demand.
func (g *Generator) Next() Demand {
	id := g.next
	g.next++
	p1 := g.rng.Intn(1_000_000)
	p2 := appendID(make([]byte, 0, idLen+1+g.w.PadMax), id)
	if g.w.PadMax > 0 {
		n := g.w.PadMin + g.rng.Intn(g.w.PadMax-g.w.PadMin+1)
		p2 = append(append(p2, '-'), g.pad[:n]...)
	}
	want := strconv.AppendInt(append(append([]byte(nil), p2...), '/'), int64(2*p1), 10)
	var body []byte
	if g.w.Protocol == "json" {
		body = make([]byte, 0, len(p2)+48)
		body = append(body, `{"param1":`...)
		body = strconv.AppendInt(body, int64(p1), 10)
		body = append(body, `,"param2":"`...)
		body = append(body, p2...)
		body = append(body, `"}`...)
	} else {
		body = make([]byte, 0, len(p2)+220)
		body = append(body, soapHead...)
		body = append(body, `<operation1Request><param1>`...)
		body = strconv.AppendInt(body, int64(p1), 10)
		body = append(body, `</param1><param2>`...)
		body = append(body, p2...)
		body = append(body, `</param2></operation1Request>`...)
		body = append(body, soapTail...)
	}
	return Demand{ID: id, Body: body, Want: want}
}

const (
	soapHead = `<?xml version="1.0" encoding="UTF-8"?>` +
		`<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body>`
	soapTail = `</soap:Body></soap:Envelope>`
)

// ContentType is the request Content-Type of the workload's protocol.
func (w Workload) ContentType() string {
	if w.Protocol == "json" {
		return "application/json"
	}
	return "text/xml; charset=utf-8"
}

// Path is the consumer request path of the benchmark unit.
func (w Workload) Path() string {
	if w.Protocol == "json" {
		return "/" + UnitName + "/operation1"
	}
	return "/" + UnitName + "/"
}

// UnitName is the benchmark fleet's single unit.
const UnitName = "svc"

// Result extracts Op1Result from a delivered reply body, or nil.
func Result(protocol string, body []byte) []byte {
	open, close := []byte("<Op1Result>"), []byte("</Op1Result>")
	if protocol == "json" {
		open, close = []byte(`"Op1Result":"`), []byte(`"`)
	}
	i := bytes.Index(body, open)
	if i < 0 {
		return nil
	}
	rest := body[i+len(open):]
	j := bytes.Index(rest, close)
	if j < 0 {
		return nil
	}
	return rest[:j]
}
