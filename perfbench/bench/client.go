package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	"wsupgrade/internal/core"
)

// Reply is what the consumer saw for one demand.
type Reply struct {
	Status int
	Winner string
	// Conf reports a published confidence: the SOAP conf:Confidence
	// header element, or the X-Wsupgrade-Confidence HTTP header.
	Conf bool
	// Headers is the sorted response header name set.
	Headers []string
	Body    []byte
}

// Correct reports whether the reply delivers the demand's answer.
func (r Reply) Correct(w Workload, d Demand) bool {
	return r.Status == http.StatusOK && r.Winner != "" && bytes.Equal(Result(w.Protocol, r.Body), d.Want)
}

// conn is one persistent consumer connection speaking HTTP/1.1.
type conn struct {
	w    Workload
	addr string
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	head []byte
}

func dialConn(w Workload, addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	head := fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: %s\r\n",
		w.Path(), addr, w.ContentType())
	return &conn{w: w, addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10), head: head}, nil
}

func (c *conn) Close() error { return c.c.Close() }

// do sends one demand and reads its reply. A transport error leaves the
// connection unusable; the caller redials.
func (c *conn) do(d Demand) (Reply, error) {
	if err := c.c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return Reply{}, err
	}
	c.bw.Write(c.head)
	c.bw.WriteString(IDHeader + ": ")
	c.bw.Write(appendID(c.bw.AvailableBuffer(), d.ID))
	c.bw.WriteString("\r\nContent-Length: ")
	c.bw.Write(strconv.AppendInt(c.bw.AvailableBuffer(), int64(len(d.Body)), 10))
	c.bw.WriteString("\r\n\r\n")
	c.bw.Write(d.Body)
	if err := c.bw.Flush(); err != nil {
		return Reply{}, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return Reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return Reply{}, err
	}
	r := Reply{
		Status: resp.StatusCode,
		Winner: resp.Header.Get("X-Wsupgrade-Winner"),
		Body:   body,
	}
	r.Conf = resp.Header.Get(core.ConfidenceHeader) != "" || bytes.Contains(body, []byte("<conf:Confidence"))
	for k := range resp.Header {
		r.Headers = append(r.Headers, k)
	}
	sort.Strings(r.Headers)
	return r, nil
}

// client is a redialling consumer connection.
type client struct {
	w    Workload
	addr string
	c    *conn
}

func (cl *client) do(d Demand) (Reply, error) {
	if cl.c == nil {
		c, err := dialConn(cl.w, cl.addr)
		if err != nil {
			return Reply{}, err
		}
		cl.c = c
	}
	r, err := cl.c.do(d)
	if err != nil {
		_ = cl.c.Close()
		cl.c = nil
	}
	return r, err
}

func (cl *client) close() {
	if cl.c != nil {
		_ = cl.c.Close()
		cl.c = nil
	}
}
