package wire

import (
	"bufio"
	"bytes"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"wsupgrade/internal/httpx"
)

// fuzzMaxBytes is the response-body bound both readers enforce; small,
// so the fuzzer reaches the size-limit paths with short inputs.
const fuzzMaxBytes = 64

// readWire parses one response from data with the wire client's reader.
func readWire(data []byte) (status int, body []byte, err error) {
	cn := &conn{br: bufio.NewReaderSize(bytes.NewReader(data), 4096)}
	status, buf, _, _, err := cn.readResponse(fuzzMaxBytes)
	if err != nil {
		return 0, nil, err
	}
	body = append([]byte(nil), buf.B...)
	buf.Release()
	return status, body, nil
}

// readNetHTTP parses one response from data the way the fallback path
// does: net/http's reader, the Transport's handling of interim 1xx
// responses (skipped, at most five, 101 final), and httpx's bounded
// body read.
func readNetHTTP(data []byte) (status int, body []byte, err error) {
	br := bufio.NewReader(bytes.NewReader(data))
	req := &http.Request{Method: http.MethodPost}
	for interim := 0; ; interim++ {
		resp, err := http.ReadResponse(br, req)
		if err != nil {
			return 0, nil, err
		}
		if resp.StatusCode >= 100 && resp.StatusCode <= 199 && resp.StatusCode != http.StatusSwitchingProtocols {
			if interim >= maxInterimResponses {
				return 0, nil, errors.New("too many interim responses")
			}
			continue
		}
		body, err := httpx.ReadBounded(resp.Body, fuzzMaxBytes)
		resp.Body.Close()
		if err != nil {
			return 0, nil, err
		}
		return resp.StatusCode, body, nil
	}
}

// FuzzWireResponse feeds the same bytes to the wire client's response
// reader and to net/http's. Neither may panic, wire may never return a
// body over the bound, and whenever both accept a response they must
// agree on its status and body. Inputs one reader accepts and the other
// rejects are allowed; the known ones are pinned in pinnedDisagreements.
func FuzzWireResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		status, body, err := readWire(data)
		if err == nil && len(body) > fuzzMaxBytes {
			t.Fatalf("wire returned a %d-byte body over the %d-byte bound", len(body), fuzzMaxBytes)
		}
		refStatus, refBody, refErr := readNetHTTP(data)
		if err != nil || refErr != nil {
			return
		}
		if status != refStatus || !bytes.Equal(body, refBody) {
			t.Fatalf("wire read %d %q, net/http read %d %q", status, body, refStatus, refBody)
		}
	})
}

// pinnedDisagreements names the seed-corpus cases (files under
// testdata/fuzz/FuzzWireResponse) that wire rejects while net/http
// accepts, with the reason wire's stricter answer stands. A release
// sending any of them is judged an evident failure by the wire path.
var pinnedDisagreements = map[string]string{
	"pinned-status-101": "101 Switching Protocols answers a POST only " +
		"after an Upgrade request, which dispatch never sends; net/http " +
		"hands back the raw connection as the body",
	"pinned-status-below-100": "RFC 9110 status codes are 100-599; net/http " +
		"accepts any three digits",
	"pinned-status-signed": "net/http parses the status with strconv.Atoi, " +
		"which accepts a leading sign",
	"pinned-http2-version": "wire speaks HTTP/1.x only; net/http's " +
		"ReadResponse parses any HTTP/d.d version",
	"pinned-obs-fold": "net/http joins a line led by whitespace onto the " +
		"previous field (obs-fold, deprecated by RFC 9112 section 5.2); wire " +
		"rejects every such line",
}

// TestPinnedDisagreements keeps every pinned corpus case a live
// disagreement: wire rejects it and net/http accepts it. A reader change
// that resolves one must drop its pin.
func TestPinnedDisagreements(t *testing.T) {
	for name, reason := range pinnedDisagreements {
		data := readCorpusCase(t, name)
		if _, _, err := readWire(data); err == nil {
			t.Errorf("%s: wire accepts it now; drop the pin (%s)", name, reason)
		}
		if _, _, err := readNetHTTP(data); err != nil {
			t.Errorf("%s: net/http rejects it now (%v); drop the pin (%s)", name, err, reason)
		}
	}
}

// readCorpusCase decodes one single-[]byte seed-corpus file.
func readCorpusCase(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzWireResponse", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a single-value corpus file", name)
	}
	arg := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	s, err := strconv.Unquote(arg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}
