package bench

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wsupgrade/internal/core"
	"wsupgrade/internal/faulty"
)

// Releases is a workload's set of release servers on loopback TCP,
// owned by the driver. Each is a cheap responder computing the correct
// operation1 answer; the campaign's newest release is wrapped with
// faulty.Corrupt.
type Releases struct {
	w       Workload
	servers []*http.Server
	eps     []core.Endpoint
	done    sync.WaitGroup
	tracer  *Tracer
	calls   atomic.Int64
	dials   atomic.Int64
	bytes   atomic.Int64
}

// StartReleases starts the workload's releases. The fault schedule is
// a function of seed. offByOne makes the oldest release answer
// 2*param1+1: the deliberately wrong case the correctness gate must
// catch.
func StartReleases(w Workload, seed uint64, t *Tracer, offByOne bool) (*Releases, error) {
	rs := &Releases{w: w, tracer: t}
	versions := w.Versions()
	for i, v := range versions {
		var h http.Handler = &responder{rs: rs, json: w.Protocol == "json", offByOne: offByOne && i == 0}
		if w.CorruptRate > 0 && i == len(versions)-1 {
			h = faulty.Wrap(h, seed^0x5eed, faulty.Fault{Mode: faulty.Corrupt, Rate: w.CorruptRate})
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rs.Close()
			return nil, err
		}
		srv := &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ConnState: func(_ net.Conn, s http.ConnState) {
				if s == http.StateNew {
					rs.dials.Add(1)
				}
			},
		}
		rs.servers = append(rs.servers, srv)
		rs.eps = append(rs.eps, core.Endpoint{Version: v, URL: "http://" + ln.Addr().String()})
		rs.done.Add(1)
		go func() {
			defer rs.done.Done()
			_ = srv.Serve(countingListener{ln, &rs.bytes})
		}()
	}
	return rs, nil
}

// Endpoints returns the releases, oldest first.
func (rs *Releases) Endpoints() []core.Endpoint { return rs.eps }

// Args returns the releases as mediator -release arguments.
func (rs *Releases) Args() []string {
	out := make([]string, 0, 2*len(rs.eps))
	for _, ep := range rs.eps {
		out = append(out, "-release", ep.Version+"="+ep.URL)
	}
	return out
}

// Counts returns release calls, accepted connections and wire bytes.
func (rs *Releases) Counts() (calls, dials, bytes int64) {
	return rs.calls.Load(), rs.dials.Load(), rs.bytes.Load()
}

// Close stops every release server and waits for them.
func (rs *Releases) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, s := range rs.servers {
		if err := s.Shutdown(ctx); err != nil {
			_ = s.Close()
		}
	}
	rs.done.Wait()
}

// responder answers operation1 with param2 + "/" + 2*param1.
type responder struct {
	rs       *Releases
	json     bool
	offByOne bool
}

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (h *responder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := now()
	h.rs.calls.Add(1)
	in := bufPool.Get().(*bytes.Buffer)
	out := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(in)
	defer bufPool.Put(out)
	in.Reset()
	out.Reset()
	if _, err := in.ReadFrom(r.Body); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p1, p2, err := parseOperation1(in.Bytes(), h.json)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	answer := 2 * p1
	if h.offByOne {
		answer++
	}
	if h.json {
		out.WriteString(`{"Op1Result":"`)
		out.Write(p2)
		out.WriteByte('/')
		out.Write(strconv.AppendInt(out.AvailableBuffer(), int64(answer), 10))
		out.WriteString(`"}`)
		w.Header()["Content-Type"] = jsonCT
	} else {
		out.WriteString(soapHead)
		out.WriteString(`<operation1Response><Op1Result>`)
		out.Write(p2)
		out.WriteByte('/')
		out.Write(strconv.AppendInt(out.AvailableBuffer(), int64(answer), 10))
		out.WriteString(`</Op1Result></operation1Response>`)
		out.WriteString(soapTail)
		w.Header()["Content-Type"] = soapCT
	}
	w.Header()["Content-Length"] = []string{strconv.Itoa(out.Len())}
	_, _ = w.Write(out.Bytes())
	h.rs.tracer.Record(FindID(p2), LayerService, start, now())
}

var (
	jsonCT = []string{"application/json"}
	soapCT = []string{"text/xml; charset=utf-8"}
)

var errBadDemand = errors.New("release: malformed operation1 demand")

// parseOperation1 extracts param1 and param2 from a demand body; param2
// holds only letters, digits and '-', so neither protocol escapes it.
func parseOperation1(b []byte, json bool) (int, []byte, error) {
	p1Open, p1Close := []byte("<param1>"), []byte("</param1>")
	p2Open, p2Close := []byte("<param2>"), []byte("</param2>")
	if json {
		p1Open, p1Close = []byte(`"param1":`), []byte(`,`)
		p2Open, p2Close = []byte(`"param2":"`), []byte(`"`)
	}
	v1, ok1 := between(b, p1Open, p1Close)
	v2, ok2 := between(b, p2Open, p2Close)
	if !ok1 || !ok2 {
		return 0, nil, errBadDemand
	}
	p1, err := strconv.Atoi(string(v1))
	if err != nil {
		return 0, nil, errBadDemand
	}
	return p1, v2, nil
}

func between(b, open, close []byte) ([]byte, bool) {
	i := bytes.Index(b, open)
	if i < 0 {
		return nil, false
	}
	rest := b[i+len(open):]
	j := bytes.Index(rest, close)
	if j < 0 {
		return nil, false
	}
	return rest[:j], true
}

// countingListener counts the bytes every accepted connection moves.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
