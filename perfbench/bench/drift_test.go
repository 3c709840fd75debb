package bench

import (
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/journal"
)

// driveSequential sends n seeded campaign demands one at a time.
func driveSequential(t *testing.T, addr string, n int) []Reply {
	t.Helper()
	w := Workloads["campaign"]
	gen := NewGenerator(w, 11, streamProbe)
	cl := &client{w: w, addr: addr}
	defer cl.close()
	out := make([]Reply, 0, n)
	for range n {
		d := gen.Next()
		r, err := cl.do(d)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct(w, d) {
			t.Fatalf("wrong reply: status %d body %.200q", r.Status, r.Body)
		}
		out = append(out, r)
	}
	return out
}

// TestCampaignMatchesUpgraded guards the campaign mediator's copy of
// cmd/upgraded's engine defaults: the shipped binary, given the
// campaign unit as its -fleet config, must answer the same seeded
// demands with the same headers and bodies, end in the same phase and
// record the same joint counts. Over the campaign's corrupting release
// neither switches; over a faultless one both must switch at the same
// demand, which pins the policy (criterion, confidence, check cadence).
func TestCampaignMatchesUpgraded(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt float64
		phase   string
	}{
		{"corrupting", Workloads["campaign"].CorruptRate, "observation"},
		{"faultless", 0, "new-only"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rw := Workloads["campaign"]
			rw.CorruptRate = tc.corrupt
			matchUpgraded(t, rw, tc.phase)
		})
	}
}

// matchUpgraded drives the same demands through cmd/upgraded and the
// campaign mediator, each over fresh releases rw, and compares them.
func matchUpgraded(t *testing.T, rw Workload, phase string) {
	const n = 250
	w := Workloads["campaign"]
	dir := t.TempDir()

	// The shipped binary.
	rels, err := StartReleases(rw, 11, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer rels.Close()
	cfg, err := CampaignFleetJSON(rels.Endpoints(), filepath.Join(dir, "upgraded.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(cfgPath, cfg, 0o644); err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(dir, "addr")
	jdir := filepath.Join(dir, "journals")
	cmd := exec.Command(filepath.Join(binDir, "upgraded"), "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-fleet", cfgPath, "-journal-dir", jdir, "-snapshot-interval", "20ms")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		_ = cmd.Wait()
	}()
	var addr string
	for deadline := time.Now().Add(30 * time.Second); addr == ""; {
		if b, err := os.ReadFile(addrFile); err == nil {
			addr = string(b)
		} else if time.Now().After(deadline) {
			t.Fatal("upgraded did not start")
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	shipped := driveSequential(t, addr, n)
	var unit struct{ Phase string }
	resp, err := http.Get("http://" + addr + "/fleet/units/" + UnitName)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&unit)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// The benchmark's campaign mediator over fresh, identically seeded
	// releases.
	rels2, err := StartReleases(rw, 11, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer rels2.Close()
	p, err := spawn(filepath.Join(binDir, "mediator"), w, rels2, filepath.Join(dir, "bench"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer p.kill()
	bench := driveSequential(t, p.data, n)
	st, err := p.stats(false)
	if err != nil {
		t.Fatal(err)
	}

	for i := range shipped {
		a, b := shipped[i], bench[i]
		if !slices.Equal(a.Headers, b.Headers) {
			t.Fatalf("demand %d: header sets differ: upgraded %v, benchmark %v", i, a.Headers, b.Headers)
		}
		if a.Winner != b.Winner || string(a.Body) != string(b.Body) {
			t.Fatalf("demand %d: upgraded %q %.200q, benchmark %q %.200q", i, a.Winner, a.Body, b.Winner, b.Body)
		}
	}
	if unit.Phase != st.Phase || st.Phase != phase {
		t.Errorf("phase: upgraded %q, benchmark %q, want %q", unit.Phase, st.Phase, phase)
	}
	if !strings.Contains(string(shipped[0].Body), "<conf:Confidence") {
		t.Errorf("the campaign publishes no confidence header: %.200q", shipped[0].Body)
	}
	// upgraded's periodic journal snapshot carries its joint counts.
	var shippedJoint bayes.JointCounts
	for deadline := time.Now().Add(10 * time.Second); shippedJoint != st.Joint; {
		if time.Now().After(deadline) {
			t.Fatalf("joint counts: upgraded %+v, benchmark %+v", shippedJoint, st.Joint)
		}
		time.Sleep(20 * time.Millisecond)
		b, err := os.ReadFile(filepath.Join(jdir, UnitName+".journal"))
		if err != nil {
			continue
		}
		if js, _, err := journal.Decode(b); err == nil && js.Snapshot != nil {
			shippedJoint = js.Snapshot.Campaign.Joint
		}
	}
}
