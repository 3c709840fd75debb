// Package httpx is the HTTP transport substrate: clients with sane
// timeouts and tuned connection pools, retry of transient failures,
// and bounded response reads.
//
// Retrying maps directly onto the paper's failure taxonomy (§2.1):
// a *transient* failure "can be tolerated by using generic recovery
// techniques such as rollback and retry even if the same code is used",
// whereas non-transient failures need the diverse redundancy the upgrade
// middleware provides. This package supplies the first, cheap line of
// defence; internal/core supplies the second.
package httpx

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"time"

	"wsupgrade/internal/pool"
)

// ErrBadPolicy reports an invalid retry policy.
var ErrBadPolicy = errors.New("httpx: bad retry policy")

// ErrTooLarge reports a message body that exceeds its size bound. A
// release streaming an oversized response is an evident failure of that
// release, not a reason to exhaust the proxy's memory.
var ErrTooLarge = errors.New("httpx: message exceeds size limit")

// DefaultMaxResponseBytes caps release response bodies when RetryPolicy
// leaves MaxResponseBytes zero. It matches the proxy's consumer-side
// request limit, so neither direction of the mediated exchange is
// unbounded.
const DefaultMaxResponseBytes = 10 << 20

// DefaultMaxIdleConnsPerHost sizes the keep-alive pool NewPooledClient
// keeps per release endpoint. http.DefaultTransport keeps only 2, which
// starves a fan-out that hits the same release host from many concurrent
// dispatches: every burst re-dials most of its connections.
const DefaultMaxIdleConnsPerHost = 32

// NewClient returns an HTTP client with an overall per-call timeout.
// An absent response within the deadline is the evident failure the
// middleware's availability monitoring counts (§4.3).
//
// It shares http.DefaultTransport; for the middleware's fan-out traffic
// use NewPooledClient, whose per-host idle pool matches parallel
// dispatch.
func NewClient(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout}
}

// NewPooledClient returns an HTTP client with a dedicated transport tuned
// for the middleware's traffic shape: every request goes to one of a
// small, known set of release hosts, and parallel dispatch multiplies the
// concurrency per host by the number of in-flight consumer requests.
// hosts is the expected number of distinct release endpoints (used to
// size the total idle pool); values below 1 mean the count is unknown,
// and only the per-host bound applies.
func NewPooledClient(timeout time.Duration, hosts int) *http.Client {
	transport := &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		ForceAttemptHTTP2:     true,
		MaxIdleConns:          DefaultMaxIdleConnsPerHost * max(hosts, 0),
		MaxIdleConnsPerHost:   DefaultMaxIdleConnsPerHost,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: 1 * time.Second,
	}
	return &http.Client{Timeout: timeout, Transport: transport}
}

// maxPooledReadBuf keeps an occasional giant body from pinning its
// buffer in the pool forever.
const maxPooledReadBuf = 1 << 16

// bodyPool backs the bounded-read buffers. Bodies on the middleware's
// hot path are small SOAP envelopes; recycling the growth of a fresh
// buffer per exchange was measurable allocator traffic.
var bodyPool = pool.BufPool{MaxCap: maxPooledReadBuf}

// ReadBoundedBuf reads r to EOF into a pooled buffer and transfers
// ownership of that buffer to the caller: exactly one Release (plus one
// per extra Retain) must eventually pair with the returned buffer, and
// nothing may alias its contents past that Release. Reading more than
// max bytes returns ErrTooLarge. The read loop is hand-rolled (no
// io.LimitReader / bytes.Buffer plumbing): this runs at least twice per
// proxied request, and the wrapper structs alone were measurable.
//
//wsu:owns return
func ReadBoundedBuf(r io.Reader, max int64) (*pool.Buf, error) {
	b := bodyPool.Get()
	buf := b.B
	for {
		if len(buf) == cap(buf) {
			grown := 2 * cap(buf)
			if grown < 4096 {
				grown = 4096
			}
			next := make([]byte, len(buf), grown)
			copy(next, buf)
			buf = next
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > max {
			b.B = buf
			b.Release()
			return nil, fmt.Errorf("%w: more than %d bytes", ErrTooLarge, max)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			b.B = buf
			b.Release()
			return nil, err
		}
	}
	b.B = buf
	return b, nil
}

// ReadBounded reads r to EOF through a pooled scratch buffer and returns
// a right-sized, caller-owned copy. Reading more than max bytes returns
// ErrTooLarge. Callers on the request hot path use ReadBoundedBuf
// instead and skip the copy by owning the pooled buffer outright.
func ReadBounded(r io.Reader, max int64) ([]byte, error) {
	//wsu:allow poolcheck -- a non-nil error means no buffer was returned
	b, err := ReadBoundedBuf(r, max)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b.B))
	copy(out, b.B)
	b.Release()
	return out, nil
}

// RetryPolicy controls PostXML's tolerance of transient failures and the
// size bound on response bodies.
type RetryPolicy struct {
	// Attempts is the total number of tries (≥ 1).
	Attempts int
	// Backoff is the delay before the second attempt; it doubles for
	// each further attempt.
	Backoff time.Duration
	// RetryStatus reports whether an HTTP status code is transient.
	// Nil means "retry on 5xx".
	RetryStatus func(code int) bool
	// MaxResponseBytes caps the response body; larger bodies fail the
	// exchange with ErrTooLarge (and are not retried — an oversized
	// response is not transient). Zero means DefaultMaxResponseBytes.
	MaxResponseBytes int64
}

// NoRetry is the policy with a single attempt.
var NoRetry = RetryPolicy{Attempts: 1}

// DefaultRetry makes three attempts with a 50 ms initial backoff.
var DefaultRetry = RetryPolicy{Attempts: 3, Backoff: 50 * time.Millisecond}

// Validate checks the policy.
func (p RetryPolicy) Validate() error {
	if p.Attempts < 1 {
		return fmt.Errorf("%w: attempts %d", ErrBadPolicy, p.Attempts)
	}
	if p.Backoff < 0 {
		return fmt.Errorf("%w: negative backoff", ErrBadPolicy)
	}
	if p.MaxResponseBytes < 0 {
		return fmt.Errorf("%w: negative response size limit", ErrBadPolicy)
	}
	return nil
}

// ShouldRetryStatus reports whether the policy treats an HTTP status as
// transient. It is exported so alternate transports (internal/wire)
// share PostXML's retry semantics by construction rather than by copy.
func (p RetryPolicy) ShouldRetryStatus(code int) bool {
	if p.RetryStatus != nil {
		return p.RetryStatus(code)
	}
	return code >= 500 && code != http.StatusInternalServerError
}

// BackoffFor returns the delay before the given attempt (≥ 2): Backoff
// for the second attempt, doubling for each one after. Exported for
// alternate transports; see ShouldRetryStatus.
func (p RetryPolicy) BackoffFor(attempt int) time.Duration {
	return time.Duration(float64(p.Backoff) * math.Pow(2, float64(attempt-2)))
}

// EffectiveMaxResponseBytes resolves the response cap, applying the
// default when MaxResponseBytes is zero. Exported for alternate
// transports; see ShouldRetryStatus.
func (p RetryPolicy) EffectiveMaxResponseBytes() int64 {
	if p.MaxResponseBytes == 0 {
		return DefaultMaxResponseBytes
	}
	return p.MaxResponseBytes
}

// Result is the outcome of a PostXML exchange. It is returned by
// value: the exchange runs on the dispatch hot path, and the struct is
// small enough that a heap allocation per call was measurable.
type Result struct {
	// Status is the final HTTP status code.
	Status int
	// Body is the response body.
	Body []byte
	// Header is the final response's header set.
	Header http.Header
	// Attempts is how many tries were made.
	Attempts int
	// Latency is the total wall time including retries.
	Latency time.Duration
	// BodyBuf, when non-nil, is the pooled buffer backing Body, and its
	// ownership transfers to the caller: one Release pairs with the
	// reference carried here, and nothing may alias Body past it. A nil
	// BodyBuf means Body is unpooled and needs no release.
	BodyBuf *pool.Buf
}

// PostXML posts an XML payload with retry of transient failures:
// transport errors and (by default) 5xx statuses other than 500 are
// retried with exponential backoff. HTTP 500 is NOT transient here — the
// SOAP 1.1 binding uses it for faults, which are deterministic evident
// failures that retrying the same release cannot fix.
//
// The response body is read through a pooled buffer and bounded by the
// policy's MaxResponseBytes; an oversized body fails with ErrTooLarge
// without further attempts.
func PostXML(ctx context.Context, client *http.Client, url, contentType string, body []byte, policy RetryPolicy) (Result, error) {
	if err := policy.Validate(); err != nil {
		return Result{}, err
	}
	if client == nil {
		client = http.DefaultClient
	}
	maxBytes := policy.EffectiveMaxResponseBytes()
	start := time.Now()
	var lastErr error
	for attempt := 1; attempt <= policy.Attempts; attempt++ {
		if attempt > 1 {
			select {
			case <-ctx.Done():
				return Result{}, fmt.Errorf("httpx: cancelled during backoff: %w", ctx.Err())
			case <-time.After(policy.BackoffFor(attempt)):
			}
		}
		// A bytes.Reader body lets NewRequestWithContext set GetBody, so
		// the transport can replay the request on another connection.
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return Result{}, fmt.Errorf("httpx: building request: %w", err)
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := client.Do(req)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break // deadline spent; no point retrying
			}
			continue
		}
		//wsu:allow poolcheck -- ownership transfers to the caller via Result.BodyBuf
		data, err := ReadBoundedBuf(resp.Body, maxBytes)
		resp.Body.Close()
		if err != nil {
			if errors.Is(err, ErrTooLarge) {
				return Result{}, fmt.Errorf("httpx: POST %s: %w", url, err)
			}
			lastErr = err
			continue
		}
		if policy.ShouldRetryStatus(resp.StatusCode) && attempt < policy.Attempts {
			lastErr = fmt.Errorf("httpx: transient HTTP %d from %s", resp.StatusCode, url)
			data.Release()
			continue
		}
		return Result{
			Status:   resp.StatusCode,
			Body:     data.B,
			Header:   resp.Header,
			Attempts: attempt,
			Latency:  time.Since(start),
			BodyBuf:  data,
		}, nil
	}
	return Result{}, fmt.Errorf("httpx: POST %s failed after retries: %w", url, lastErr)
}
