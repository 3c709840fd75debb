package core

// Tests for the request/transport pipeline: the engine's wire client
// and its pooled fallback, the WSDL scheme derivation, the contract-guarded "<op>Conf"
// routing, and the single-target dispatch fast path.

import (
	"context"
	"crypto/tls"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsupgrade/internal/httpx"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/wire"
	"wsupgrade/internal/wsdl"
)

// The engine's default release transport is the wire client, owned and
// closed by the engine; its fallback serves the health probes.
func TestDefaultTransportIsWire(t *testing.T) {
	e, err := New(Config{Releases: []Endpoint{
		{Version: "1.0", URL: "http://a.invalid"},
		{Version: "1.1", URL: "http://b.invalid"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	if e.wire == nil || !e.ownsWire {
		t.Fatalf("default transport: wire=%v ownsWire=%v, want an owned wire client", e.wire != nil, e.ownsWire)
	}
	if e.wire.Fallback() == nil {
		t.Fatal("no fallback client for TLS releases and health probes")
	}
}

// The wire client the engine builds must carry the tuned pooled
// fallback: http.DefaultTransport keeps only 2 idle connections per
// host, which starves parallel fan-out to the same TLS release.
func TestNetHTTPFallbackUsesPooledTransport(t *testing.T) {
	e, err := New(Config{
		Releases: []Endpoint{
			{Version: "1.0", URL: "https://a.invalid"},
			{Version: "1.1", URL: "https://b.invalid"},
		},
		Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	fallback := e.wire.Fallback()
	transport, ok := fallback.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("fallback client transport is %T, want *http.Transport", fallback.Transport)
	}
	if transport.MaxIdleConnsPerHost != httpx.DefaultMaxIdleConnsPerHost {
		t.Fatalf("MaxIdleConnsPerHost = %d; fan-out would thrash connections", transport.MaxIdleConnsPerHost)
	}
	if transport.MaxIdleConns != 0 {
		t.Fatalf("MaxIdleConns = %d; the total idle pool must not cap the per-host one", transport.MaxIdleConns)
	}
	if fallback.Timeout != time.Second+500*time.Millisecond {
		t.Fatalf("fallback timeout = %v, want the call timeout plus slack", fallback.Timeout)
	}
}

// An injected wire client is used as given, and Engine.Close leaves it
// open: it belongs to the caller (a fleet shares one across units).
func TestConfiguredClientNotReplaced(t *testing.T) {
	_, rel := startRelease(t, "1.0", service.FaultPlan{})
	custom := wire.NewClient(wire.Options{})
	defer custom.Close()
	e, err := New(Config{
		Releases:     []Endpoint{rel},
		InitialPhase: PhaseNewOnly,
		Wire:         custom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.wire != custom || e.ownsWire {
		t.Fatal("configured wire client was replaced or claimed")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := custom.PostXML(context.Background(), rel.URL, soap.ContentType, addEnvelope(t), httpx.NoRetry); err != nil {
		t.Fatalf("Engine.Close closed the injected wire client: %v", err)
	}
}

// A TLS release is served end to end through the one wire client: its
// fallback carries both the demands and the health probes.
func TestTLSReleaseThroughWireFallback(t *testing.T) {
	rel, err := service.New(service.DemoContract("1.0"), service.DemoBehaviours(), service.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewTLSServer(rel.Handler())
	defer ts.Close()
	client := wire.NewClient(wire.Options{Fallback: ts.Client()})
	defer client.Close()
	e, proxy := startEngine(t, Config{
		Releases:     []Endpoint{{Version: "1.0", URL: ts.URL}},
		InitialPhase: PhaseNewOnly,
		Wire:         client,
	})
	out, err := callAdd(t, proxy.URL, 20, 22)
	if err != nil {
		t.Fatal(err)
	}
	if out.Sum != 42 {
		t.Fatalf("sum = %d", out.Sum)
	}
	health := e.CheckHealth(context.Background())
	if len(health) != 1 || !health[0].Up {
		t.Fatalf("health = %+v, want the TLS release up", health)
	}
	if rel.Calls() != 1 {
		t.Fatalf("release served %d calls, want 1", rel.Calls())
	}
}

// addEnvelope is a SOAP add demand.
func addEnvelope(t *testing.T) []byte {
	t.Helper()
	env, err := soap.Envelope(service.AddRequest{A: 1, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func fetchWSDL(t *testing.T, e *Engine, mutate func(*http.Request)) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "http://proxy.example/wsdl", nil)
	if mutate != nil {
		mutate(req)
	}
	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /wsdl: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// The published WSDL endpoint must use the scheme the consumer reached
// the engine with, not a hardcoded "http://".
func TestServeWSDLScheme(t *testing.T) {
	contract := service.DemoContract("1.1")
	e, err := New(Config{
		Releases:     []Endpoint{{Version: "1.1", URL: "http://rel.invalid"}},
		InitialPhase: PhaseNewOnly,
		Contract:     &contract,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()

	if text := fetchWSDL(t, e, nil); !strings.Contains(text, "http://proxy.example/") {
		t.Errorf("plain request: endpoint not http:\n%s", text)
	}
	text := fetchWSDL(t, e, func(r *http.Request) { r.TLS = &tls.ConnectionState{} })
	if !strings.Contains(text, "https://proxy.example/") {
		t.Errorf("TLS request: endpoint not https:\n%s", text)
	}
	text = fetchWSDL(t, e, func(r *http.Request) { r.Header.Set("X-Forwarded-Proto", "https") })
	if !strings.Contains(text, "https://proxy.example/") {
		t.Errorf("X-Forwarded-Proto https: endpoint not https:\n%s", text)
	}
	// A proxy chain reports the client-facing hop first.
	text = fetchWSDL(t, e, func(r *http.Request) { r.Header.Set("X-Forwarded-Proto", "https, http") })
	if !strings.Contains(text, "https://proxy.example/") {
		t.Errorf("forwarded chain: endpoint not https:\n%s", text)
	}
	// Terminated TLS downgraded by an internal hop: the header wins.
	text = fetchWSDL(t, e, func(r *http.Request) {
		r.TLS = &tls.ConnectionState{}
		r.Header.Set("X-Forwarded-Proto", "http")
	})
	if !strings.Contains(text, "http://proxy.example/") {
		t.Errorf("header downgrade: endpoint not http:\n%s", text)
	}
}

// A genuine contract operation whose name ends in "Conf" must be proxied
// as itself, not hijacked as a §6.2 confidence variant.
func TestGenuineConfOperationNotHijacked(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if !strings.Contains(string(body), "<GetConfRequest>") {
			t.Errorf("backend received a rewritten request: %s", body)
		}
		w.Header().Set("Content-Type", soap.ContentType)
		_, _ = w.Write(soap.EnvelopeRaw([]byte(`<GetConfResponse><value>7</value></GetConfResponse>`)))
	}))
	defer backend.Close()

	contract := wsdl.Contract{
		Name:            "ConfService",
		TargetNamespace: "urn:conf",
		Version:         "1.0",
		Operations: []wsdl.Operation{{
			Name:   "GetConf",
			Input:  []wsdl.Param{},
			Output: []wsdl.Param{{Name: "value", Type: "s:int"}},
		}},
	}
	e, ts := startEngine(t, Config{
		Releases:      []Endpoint{{Version: "1.0", URL: backend.URL}},
		InitialPhase:  PhaseNewOnly,
		Contract:      &contract,
		EnableConfOps: true,
	})
	_ = e
	c := &soap.Client{URL: ts.URL}
	respEnv, err := c.CallRaw(context.Background(), "GetConf",
		soap.EnvelopeRaw([]byte(`<GetConfRequest></GetConfRequest>`)))
	if err != nil {
		t.Fatalf("genuine GetConf hijacked as confidence variant: %v", err)
	}
	if !strings.Contains(string(respEnv), "<GetConfResponse>") {
		t.Fatalf("response = %s", respEnv)
	}
}

// With a contract configured, "<op>Conf" still works as a §6.2 variant
// when <op> is a real contract operation.
func TestConfVariantStillServedWithContract(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	contract := service.DemoContract("1.1")
	_, ts := startEngine(t, Config{
		Releases:      []Endpoint{old, new_},
		Oracle:        oracle.Header{},
		Inference:     testInference(),
		Contract:      &contract,
		EnableConfOps: true,
	})
	c := &soap.Client{URL: ts.URL}
	respEnv, err := c.CallRaw(context.Background(), "addConf",
		soap.EnvelopeRaw([]byte(`<addConfRequest><a>2</a><b>3</b></addConfRequest>`)))
	if err != nil {
		t.Fatal(err)
	}
	text := string(respEnv)
	if !strings.Contains(text, "<addConfResponse>") || !strings.Contains(text, "<addConf>") {
		t.Fatalf("conf variant not served: %s", text)
	}
	// An unknown "<op>Conf" with a contract is proxied (and rejected by
	// the releases as an evident failure), not served as a variant of a
	// nonexistent operation.
	_, err = c.CallRaw(context.Background(), "ghostConf",
		soap.EnvelopeRaw([]byte(`<ghostConfRequest/>`)))
	var fault *soap.Fault
	if err == nil || !errors.As(err, &fault) {
		t.Fatalf("unknown ghostConf: err = %v, want fault", err)
	}
}

// The single-target phases deliver through the synchronous fast path;
// monitoring must still see the exchange.
func TestSingleTargetFastPathRecords(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	for _, tc := range []struct {
		phase  Phase
		winner string
	}{
		{PhaseOldOnly, "1.0"},
		{PhaseNewOnly, "1.1"},
	} {
		e, ts := startEngine(t, Config{
			Releases:     []Endpoint{old, new_},
			InitialPhase: tc.phase,
			Oracle:       oracle.Header{},
		})
		out, err := callAdd(t, ts.URL, 20, 22)
		if err != nil {
			t.Fatalf("%v: %v", tc.phase, err)
		}
		if out.Sum != 42 {
			t.Fatalf("%v: sum = %d", tc.phase, out.Sum)
		}
		stats, err := e.Stats(tc.winner)
		if err != nil {
			t.Fatalf("%v: %v", tc.phase, err)
		}
		if stats.Demands != 1 || stats.Responses != 1 {
			t.Fatalf("%v: stats = %+v", tc.phase, stats)
		}
		otherVersion := "1.1"
		if tc.winner == "1.1" {
			otherVersion = "1.0"
		}
		if other, err := e.Stats(otherVersion); err == nil && other.Demands != 0 {
			t.Fatalf("%v: unused release was invoked: %+v", tc.phase, other)
		}
	}
}
