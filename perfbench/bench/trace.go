package bench

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/bayes"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/protocol"
	"wsupgrade/internal/xrand"
)

// Layer names a span's layer; each is named after the module it times.
type Layer uint8

// The traced layers. Depth 0 is the handler, depth 2 the codec's Equal
// (called from inside the oracle), everything else depth 1.
const (
	LayerServe       Layer = iota // core: the wrapped Fleet.ServeHTTP
	LayerDecode                   // protocol: Codec.DecodeRequest
	LayerDecodeReply              // protocol: Codec.DecodeReply
	LayerEqual                    // protocol: Codec.Equal
	LayerWrite                    // protocol: Codec.WriteBody
	LayerJudge                    // oracle: Oracle.JudgeInto
	LayerAdjudicate               // adjudicate: Adjudicator.Adjudicate
	LayerSink                     // monitor: the timed Store writer
	LayerService                  // service: a release handler (driver process)
	LayerClient                   // client: send to reply read (driver process)
	numLayers
)

func (l Layer) depth() int {
	switch l {
	case LayerServe, LayerClient:
		return 0
	case LayerEqual:
		return 2
	default:
		return 1
	}
}

// IDHeader carries the demand ID to the handler wrapper. It is sent on
// every demand, traced or not, so both runs parse the same bytes.
const IDHeader = "X-Bench-Id"

// Span is one timed call: wall-clock nanoseconds, so spans recorded in
// the driver and the mediator process share one clock.
type Span struct {
	ID         uint64
	Layer      Layer
	Start, End int64
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
	goids sync.Map // goroutine ID → demand ID, for seams that see no ID
}

// maxSpans bounds a tracer's memory (32 B a span).
const maxSpans = 1 << 20

func now() int64 { return time.Now().UnixNano() }

// Record stores one span.
func (t *Tracer) Record(id uint64, l Layer, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, Span{ID: id, Layer: l, Start: start, End: end})
	}
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteSpans writes spans as little-endian (id, layer, start, end)
// records.
func WriteSpans(w io.Writer, spans []Span) error {
	buf := make([]byte, 0, 32*len(spans))
	for _, s := range spans {
		buf = binary.LittleEndian.AppendUint64(buf, s.ID)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Layer))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Start))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.End))
	}
	_, err := w.Write(buf)
	return err
}

// ReadSpans decodes WriteSpans output.
func ReadSpans(b []byte) []Span {
	out := make([]Span, 0, len(b)/32)
	for ; len(b) >= 32; b = b[32:] {
		out = append(out, Span{
			ID:    binary.LittleEndian.Uint64(b),
			Layer: Layer(binary.LittleEndian.Uint64(b[8:])),
			Start: int64(binary.LittleEndian.Uint64(b[16:])),
			End:   int64(binary.LittleEndian.Uint64(b[24:])),
		})
	}
	return out
}

// goid returns the calling goroutine's ID, parsed from its stack
// header ("goroutine 17 [running]:"). Only the sink writer needs it:
// the monitor writes the event log on the handler's goroutine, and a
// JSONL record carries no demand ID.
func goid() uint64 {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// Handler wraps the mediator's front door with the core.serve span.
// withGoid registers the goroutine for the sink writer's lookup.
func (t *Tracer) Handler(next http.Handler, withGoid bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := ParseIDString(r.Header.Get(IDHeader))
		start := now()
		var g uint64
		if withGoid {
			g = goid()
			t.goids.Store(g, id)
		}
		next.ServeHTTP(w, r)
		t.Record(id, LayerServe, start, now())
		if withGoid {
			t.goids.Delete(g)
		}
	})
}

// Counters are the mediator's traced counts that no span carries.
type Counters struct {
	Judged, JudgedFailed atomic.Int64
	Evaluations          atomic.Int64
	SinkBytes            atomic.Int64
}

// ---------------------------------------------------------------------------
// protocol.Codec

type tracedCodec struct {
	inner protocol.Codec
	t     *Tracer
}

// confCodec keeps protocol.ConfOps visible through the wrapper:
// core.New type-asserts it to serve the §6.2 operations.
type confCodec struct {
	*tracedCodec
	protocol.ConfOps
}

// TraceCodec wraps a codec with decode, decode-reply, equal and write
// spans, forwarding protocol.ConfOps when the codec has it.
func TraceCodec(c protocol.Codec, t *Tracer) protocol.Codec {
	tc := &tracedCodec{inner: c, t: t}
	if co, ok := c.(protocol.ConfOps); ok {
		return confCodec{tc, co}
	}
	return tc
}

func (c *tracedCodec) Name() string                    { return c.inner.Name() }
func (c *tracedCodec) ContentType() string             { return c.inner.ContentType() }
func (c *tracedCodec) Accepts(contentType string) bool { return c.inner.Accepts(contentType) }
func (c *tracedCodec) TargetURL(base, op string) string {
	return c.inner.TargetURL(base, op)
}
func (c *tracedCodec) WriteError(w http.ResponseWriter, op string, err error) {
	c.inner.WriteError(w, op, err)
}
func (c *tracedCodec) WriteRejection(w http.ResponseWriter, status int, msg string) {
	c.inner.WriteRejection(w, status, msg)
}

func (c *tracedCodec) DecodeRequest(path string, body []byte) (protocol.Request, error) {
	start := now()
	r, err := c.inner.DecodeRequest(path, body)
	c.t.Record(FindID(body), LayerDecode, start, now())
	return r, err
}

func (c *tracedCodec) DecodeReply(status int, body []byte) ([]byte, bool, error) {
	start := now()
	p, aliases, err := c.inner.DecodeReply(status, body)
	c.t.Record(FindID(body), LayerDecodeReply, start, now())
	return p, aliases, err
}

func (c *tracedCodec) Equal(a, b []byte) bool {
	start := now()
	eq := c.inner.Equal(a, b)
	c.t.Record(FindID(a), LayerEqual, start, now())
	return eq
}

func (c *tracedCodec) WriteBody(w io.Writer, body []byte, headers ...protocol.HeaderItem) (int, error) {
	start := now()
	n, err := c.inner.WriteBody(w, body, headers...)
	c.t.Record(FindID(body), LayerWrite, start, now())
	return n, err
}

// replyID returns the demand ID echoed in the first reply with a body.
func replyID(replies []adjudicate.Reply) uint64 {
	for i := range replies {
		if id := FindID(replies[i].Body); id != 0 {
			return id
		}
	}
	return 0
}

// ---------------------------------------------------------------------------
// oracle.Oracle, adjudicate.Adjudicator, bayes.Criterion

type tracedOracle struct {
	inner oracle.Oracle
	t     *Tracer
	c     *Counters
}

// TraceOracle wraps an oracle with the oracle.judge span and the
// judged/failed counts.
func TraceOracle(o oracle.Oracle, t *Tracer, c *Counters) oracle.Oracle {
	return tracedOracle{inner: o, t: t, c: c}
}

func (o tracedOracle) Name() string { return o.inner.Name() }

func (o tracedOracle) Judge(op string, replies []adjudicate.Reply) []bool {
	return o.JudgeInto(nil, op, replies)
}

func (o tracedOracle) JudgeInto(dst []bool, op string, replies []adjudicate.Reply) []bool {
	start := now()
	failed := o.inner.JudgeInto(dst, op, replies)
	o.t.Record(replyID(replies), LayerJudge, start, now())
	n := 0
	for _, f := range failed {
		if f {
			n++
		}
	}
	o.c.Judged.Add(int64(len(failed)))
	o.c.JudgedFailed.Add(int64(n))
	return failed
}

type tracedAdjudicator struct {
	inner adjudicate.Adjudicator
	t     *Tracer
}

// TraceAdjudicator wraps an adjudicator with the adjudicate span.
func TraceAdjudicator(a adjudicate.Adjudicator, t *Tracer) adjudicate.Adjudicator {
	return tracedAdjudicator{inner: a, t: t}
}

func (a tracedAdjudicator) Name() string { return a.inner.Name() }

func (a tracedAdjudicator) Adjudicate(replies []adjudicate.Reply, rng *xrand.Rand) (adjudicate.Reply, error) {
	start := now()
	r, err := a.inner.Adjudicate(replies, rng)
	a.t.Record(replyID(replies), LayerAdjudicate, start, now())
	return r, err
}

type countedCriterion struct {
	inner bayes.Criterion
	c     *Counters
}

// CountCriterion counts the policy's criterion evaluations.
func CountCriterion(cr bayes.Criterion, c *Counters) bayes.Criterion {
	return countedCriterion{inner: cr, c: c}
}

func (cr countedCriterion) Name() string { return cr.inner.Name() }

func (cr countedCriterion) Satisfied(p *bayes.Posterior) bool {
	cr.c.Evaluations.Add(1)
	return cr.inner.Satisfied(p)
}

// ---------------------------------------------------------------------------
// The event-log Store

type timedWriter struct {
	inner io.Writer
	t     *Tracer
	c     *Counters
}

// TimeWriter wraps the event log with the monitor.sink_write span.
func TimeWriter(w io.Writer, t *Tracer, c *Counters) io.Writer {
	return timedWriter{inner: w, t: t, c: c}
}

func (w timedWriter) Write(p []byte) (int, error) {
	start := now()
	n, err := w.inner.Write(p)
	end := now()
	var id uint64
	if v, ok := w.t.goids.Load(goid()); ok {
		id = v.(uint64)
	}
	w.t.Record(id, LayerSink, start, end)
	w.c.SinkBytes.Add(int64(n))
	return n, err
}
