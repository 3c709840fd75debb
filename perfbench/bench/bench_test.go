package bench

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binDir holds the binaries TestMain builds from the tree.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"wsupgrade/perfbench/cmd/mediator", "wsupgrade/cmd/upgraded")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		panic("building mediator and upgraded: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smokeOptions runs a few hundred demands per workload.
func smokeOptions(t *testing.T, workload string, trace bool) Options {
	seconds := map[string]float64{"fastpath": 0.15, "campaign": 1, "bulk-json": 1}[workload]
	return Options{
		Workload: workload, Seed: 7, Seconds: seconds, Trace: trace,
		MediatorBin: filepath.Join(binDir, "mediator"),
		WorkDir:     t.TempDir(),
		Commit:      "test",
	}
}

func metric(t *testing.T, rep *Report, name string) float64 {
	t.Helper()
	for _, m := range rep.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %s missing", name)
	return 0
}

// checkNames requires the report to carry exactly the metrics
// BENCHMARK.json lists under key, with their units.
func checkNames(t *testing.T, rep *Report, key string) {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	var metrics []struct{ Name, Unit string }
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(spec[key], &metrics); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, m := range metrics {
		want[m.Name] = m.Unit
	}
	got := map[string]string{}
	for _, m := range rep.Metrics {
		got[m.Name] = m.Unit
	}
	if len(got) != len(rep.Metrics) || len(got) != len(want) {
		t.Errorf("%s: report has %d metrics (%d names), BENCHMARK.json lists %d", key, len(rep.Metrics), len(got), len(want))
	}
	for name, unit := range want {
		if got[name] != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", key, name, got[name], unit)
		}
	}
}

func TestSmokeUntraced(t *testing.T) {
	for _, w := range []string{"fastpath", "campaign", "bulk-json"} {
		t.Run(w, func(t *testing.T) {
			rep, err := Run(smokeOptions(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 100 {
				t.Fatalf("correct %v attempted %d failed %d problems %v", rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
			}
			checkNames(t, rep, "end_to_end")
			for _, name := range []string{"setup_s", "latency_p50_ms", "latency_p99_ms", "mediator_cpu_us_per_demand", "mediator_rss_mb"} {
				if v := metric(t, rep, name); v <= 0 {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
			if v := metric(t, rep, "success_ratio"); v != 1 {
				t.Errorf("success_ratio = %v, want 1", v)
			}
			for _, k := range []string{"cpu_model", "nproc", "driver_gomaxprocs", "mediator_gomaxprocs", "go", "commit", "seed", "traced", "connections"} {
				if _, ok := rep.Stamp[k]; !ok {
					t.Errorf("stamp lacks %s", k)
				}
			}
		})
	}
}

// TestSmokeTraced checks the traced run against the workload design:
// which layers run on which workload.
func TestSmokeTraced(t *testing.T) {
	bytesPer := map[string]float64{}
	for _, w := range []string{"fastpath", "campaign", "bulk-json"} {
		rep, err := Run(smokeOptions(t, w, true))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Fatalf("%s: correct %v failed %d problems %v", w, rep.Correct, rep.Failed, rep.Problems)
		}
		checkNames(t, rep, "per_layer")
		wantCalls := map[string]float64{"fastpath": 1, "campaign": 2, "bulk-json": 3}[w]
		if v := metric(t, rep, "service.calls_per_demand"); v != wantCalls {
			t.Errorf("%s: service.calls_per_demand = %v, want %v", w, v, wantCalls)
		}
		post := metric(t, rep, "bayes.posteriors_per_demand")
		if (w == "campaign") != (post >= 1) || (w != "campaign" && post != 0) {
			t.Errorf("%s: bayes.posteriors_per_demand = %v", w, post)
		}
		if v := metric(t, rep, "lifecycle.transitions"); v != 0 {
			t.Errorf("%s: lifecycle.transitions = %v", w, v)
		}
		if v := metric(t, rep, "core.serve_p50_us"); v <= 0 {
			t.Errorf("%s: core.serve_p50_us = %v", w, v)
		}
		bytesPer[w] = metric(t, rep, "wire.bytes_per_demand")
	}
	if bytesPer["bulk-json"] < 20*bytesPer["fastpath"] {
		t.Errorf("wire.bytes_per_demand: bulk-json %v is not 20x fastpath %v", bytesPer["bulk-json"], bytesPer["fastpath"])
	}
}

// TestGateCatchesWrongRelease delivers a wrong answer on purpose: the
// correctness gate must fail the run.
func TestGateCatchesWrongRelease(t *testing.T) {
	o := smokeOptions(t, "fastpath", false)
	o.breakOldRelease = true
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || len(rep.Problems) == 0 {
		t.Fatalf("gate passed a wrong release: %+v", rep)
	}
	if !strings.Contains(strings.Join(rep.Problems, "\n"), "wrong") {
		t.Errorf("problems do not name the wrong answer: %v", rep.Problems)
	}
}

func TestAnalyzeReconciles(t *testing.T) {
	us := int64(1000)
	spans := []Span{
		{ID: 1, Layer: LayerServe, Start: 0, End: 100 * us},
		{ID: 1, Layer: LayerDecode, Start: 5 * us, End: 10 * us},
		{ID: 1, Layer: LayerJudge, Start: 50 * us, End: 70 * us},
		{ID: 1, Layer: LayerEqual, Start: 55 * us, End: 60 * us},
		{ID: 1, Layer: LayerWrite, Start: 80 * us, End: 90 * us},
	}
	// Two concurrent release calls share their 10 µs overlap.
	releases := []Span{
		{ID: 1, Layer: LayerService, Start: 20 * us, End: 40 * us},
		{ID: 1, Layer: LayerService, Start: 30 * us, End: 45 * us},
		{ID: 1, Layer: LayerClient, Start: -10 * us, End: 110 * us},
	}
	a := analyze(spans, releases)
	if a.Demands != 1 || a.ReconcileErr != 0 {
		t.Fatalf("demands %d reconcile %v", a.Demands, a.ReconcileErr)
	}
	want := map[Layer]float64{LayerDecode: 5, LayerJudge: 15, LayerEqual: 5, LayerWrite: 10, LayerService: 25}
	sum := a.CoreSelf
	for l, v := range want {
		if a.Self[l] != v {
			t.Errorf("layer %d self %v, want %v", l, a.Self[l], v)
		}
		sum += a.Self[l]
	}
	if a.CoreSelf != 40 || sum != 100 {
		t.Errorf("core self %v (want 40), sum %v (want 100)", a.CoreSelf, sum)
	}
	if a.Calls[LayerService] != 2 || a.GapP50 != 20 {
		t.Errorf("service calls %v (want 2), gap %v µs (want 20)", a.Calls[LayerService], a.GapP50)
	}

	// A child span outside its demand's handler is unaccounted time.
	spans = append(spans, Span{ID: 1, Layer: LayerSink, Start: 100 * us, End: 110 * us})
	if a := analyze(spans, releases); a.ReconcileErr != 0.1 {
		t.Errorf("reconcile error %v, want 0.1", a.ReconcileErr)
	}
}

func TestDemandIDRoundTrip(t *testing.T) {
	for _, w := range Workloads {
		g := NewGenerator(w, 3, 5)
		for range 3 {
			d := g.Next()
			if got := FindID(d.Body); got != d.ID {
				t.Fatalf("%s: FindID = %x, want %x", w.Name, got, d.ID)
			}
		}
	}
}
