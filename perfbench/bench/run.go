package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"wsupgrade/internal/journal"
)

// Options configures one benchmark run.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is the measured time: the closed-loop and open-loop
	// segments share it (the traced run splits it again between its
	// untraced and traced halves).
	Seconds float64
	Trace   bool
	// MediatorBin is the built mediator command.
	MediatorBin string
	// WorkDir holds the run's journals, event logs and mediator logs.
	WorkDir string
	// Commit identifies the measured source tree in the stamp.
	Commit string

	// breakOldRelease makes the oldest release answer wrongly: the case
	// the correctness gate must fail.
	breakOldRelease bool
}

// setupRuns is how many timed mediator starts setup_s is the median
// of: 18 in a full run, fewer in a short one.
func (o Options) setupRuns() int { return min(max(int(o.Seconds/2), 2), 18) }

// equivDemands is the traced/untraced comparison stream's length.
func (o Options) equivDemands() int { return min(max(int(o.Seconds*6), 40), 200) }

// warmup is the closed-loop time before the measured segments.
func (o Options) warmup() time.Duration {
	return min(500*time.Millisecond, time.Duration(o.Seconds*float64(time.Second)/10))
}

// Metric is one reported figure.
type Metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is one run's outcome.
type Report struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []Metric
	Stamp     map[string]any
	Problems  []string
}

func (r *Report) add(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Unit: unit, Value: v})
}

func (r *Report) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Run runs the benchmark once.
func Run(o Options) (*Report, error) {
	w, ok := Workloads[o.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if err := os.MkdirAll(o.WorkDir, 0o755); err != nil {
		return nil, err
	}
	// A journal left by an earlier run would be replayed into this one.
	for _, d := range []string{"setup", "m", "untraced", "traced", "equiv0", "equiv1"} {
		if err := os.RemoveAll(filepath.Join(o.WorkDir, d)); err != nil {
			return nil, err
		}
	}
	rep := &Report{}
	var err error
	if o.Trace {
		err = runTraced(o, w, rep)
	} else {
		err = runUntraced(o, w, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Correct = len(rep.Problems) == 0 && rep.Failed == 0
	return rep, nil
}

// measured is one mediator's life under load: warm-up, alternating
// closed-loop and open-loop segments, then a drained stop.
type measured struct {
	closed, open segment
	final        Stats
	rss          float64
	served       int
	confs        int
	spans        []Span // mediator spans, when traced
	drvSpans     []Span // client and release spans, when traced
	journal      journal.State
	journalBytes int
	// stealPct is the share of the box's CPU time stolen by its host
	// while the segments ran.
	stealPct float64
}

// measure runs one mediator through warm-up and its rounds and applies
// the correctness gate to everything it served.
func measure(o Options, w Workload, trace bool, dir string, closedD, openD time.Duration, rep *Report) (*measured, error) {
	var tr *Tracer
	if trace {
		tr = &Tracer{}
	}
	rels, err := StartReleases(w, o.Seed, tr, o.breakOldRelease)
	if err != nil {
		return nil, err
	}
	defer rels.Close()
	p, err := spawn(o.MediatorBin, w, rels, dir, trace)
	if err != nil {
		return nil, err
	}
	t := &target{w: w, p: p, seed: o.Seed}
	m := &measured{}
	stopped := false
	defer func() {
		if !stopped {
			p.kill()
		}
	}()
	if _, err := t.closedLoop(rels, streamWarm, o.warmup()); err != nil {
		return nil, err
	}
	t.tracer = tr
	// Closed and open segments alternate, so a slow spell of a shared
	// box lands in one round, which the per-round medians discount.
	n := rounds(w.Rate, openD)
	steal0 := stealTicks()
	for r := range n {
		closed, err := t.closedLoop(rels, streamClosed+r*streamsPerRound, closedD/time.Duration(n))
		if err != nil {
			return nil, err
		}
		m.closed.merge(closed)
		open, err := t.openLoop(rels, streamOpen+r*streamsPerRound, w.Rate, openD/time.Duration(n))
		if err != nil {
			return nil, err
		}
		m.open.merge(open)
	}
	m.stealPct = stealTicks().share(steal0)
	if m.rss, err = p.peakRSS(); err != nil {
		return nil, err
	}
	m.served, m.confs = t.served, t.confs
	if m.final, err = waitRecords(p, w, m.served); err != nil {
		rep.fail("%s: %v", w.Name, err)
	}
	if trace {
		if m.spans, err = p.spans(); err != nil {
			return nil, err
		}
		m.drvSpans = tr.Spans()
	}
	stopped = true
	if err := p.stop(); err != nil {
		return nil, err
	}
	if w.Name == "campaign" { // the only workload with a journal
		b, err := os.ReadFile(filepath.Join(dir, UnitName+".journal"))
		if err != nil {
			return nil, err
		}
		m.journalBytes = len(b)
		if m.journal, _, err = journal.Decode(b); err != nil {
			return nil, fmt.Errorf("decoding journal: %w", err)
		}
	}
	for _, pr := range t.problems {
		rep.fail("%s: wrong answer: %s", w.Name, pr)
	}
	if m.final.Transitions != 0 || m.final.Phase != w.Phase {
		rep.fail("%s: %d lifecycle transitions, phase %s (want 0, %s)", w.Name, m.final.Transitions, m.final.Phase, w.Phase)
	}
	return m, nil
}

// waitRecords waits until the monitor has recorded every served demand
// at each called release (and, on the campaign, in the joint counts)
// and returns the mediator's final stats (with a timed posterior).
func waitRecords(p *proc, w Workload, served int) (Stats, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := p.stats(true)
		if err != nil {
			return st, err
		}
		msg := recordsMismatch(st, w, served)
		if msg == "" {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, errors.New(msg)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func recordsMismatch(st Stats, w Workload, served int) string {
	for i, v := range w.Versions() {
		want := 0
		if i < w.Targets {
			want = served
		}
		if got := st.Demands[v]; got != want {
			return fmt.Sprintf("monitor.records: release %s recorded %d demands, want %d", v, got, want)
		}
	}
	// With the oldest and newest release both called, every demand is
	// one joint observation.
	if w.Targets == w.Releases && w.Releases >= 2 && st.Joint.N != served {
		return fmt.Sprintf("monitor.records: %d joint observations, want %d", st.Joint.N, served)
	}
	return ""
}

// setupTimes times mediator starts from spawn to the first correct
// reply. An untimed first start writes the unit's journal (on the
// campaign); every timed start then gets a fresh directory holding a
// copy of that one journal, so each replays the same file however many
// starts came before. It also returns how many probe demands were sent
// and how many were answered correctly.
func setupTimes(o Options, w Workload, rep *Report) (times []float64, probes, correct int, err error) {
	rels, err := StartReleases(w, o.Seed, nil, o.breakOldRelease)
	if err != nil {
		return nil, 0, 0, err
	}
	defer rels.Close()
	gen := NewGenerator(w, o.Seed, streamProbe)
	var seedJournal []byte
	for i := range o.setupRuns() + 1 {
		dir := filepath.Join(o.WorkDir, "setup", strconv.Itoa(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, 0, err
		}
		if seedJournal != nil {
			if err := os.WriteFile(filepath.Join(dir, UnitName+".journal"), seedJournal, 0o644); err != nil {
				return nil, 0, 0, err
			}
		}
		probes++
		start := time.Now()
		p, err := spawn(o.MediatorBin, w, rels, dir, false)
		if err != nil {
			return nil, 0, 0, err
		}
		d := gen.Next()
		cl := &client{w: w, addr: p.data}
		r, err := cl.do(d)
		elapsed := time.Since(start)
		cl.close()
		if serr := p.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, 0, 0, err
		}
		if !r.Correct(w, d) {
			rep.fail("%s: setup: wrong first reply: status %d result %.60q want %.60q", w.Name, r.Status, Result(w.Protocol, r.Body), d.Want)
			break
		}
		correct++
		if i == 0 {
			seedJournal, err = os.ReadFile(filepath.Join(dir, UnitName+".journal"))
			if err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, 0, 0, err
			}
			continue
		}
		times = append(times, elapsed.Seconds())
	}
	return times, probes, correct, nil
}

func runUntraced(o Options, w Workload, rep *Report) error {
	setup, probes, probesOK, err := setupTimes(o, w, rep)
	if err != nil {
		return err
	}
	closedD, openD := split(o.Seconds)
	m, err := measure(o, w, false, filepath.Join(o.WorkDir, "m"), closedD, openD, rep)
	if err != nil {
		return err
	}
	attempted := m.closed.attempted + m.open.attempted
	correct := m.closed.correct + m.open.correct
	rep.Attempted = attempted + probes
	rep.add("setup_s", "s", median(setup))
	rep.add("throughput_rps", "demands/s", iqm(m.closed.windows))
	rep.add("latency_p50_ms", "ms", quantile(m.open.lat, 0.50))
	rep.add("latency_p99_ms", "ms", median(m.open.p99s))
	rep.add("mediator_cpu_us_per_demand", "us", m.closed.perDemand(float64(m.closed.medCPU.Microseconds())))
	rep.add("mediator_rss_mb", "MiB", m.rss)
	rep.add("success_ratio", "ratio", float64(correct+probesOK)/float64(max(rep.Attempted, 1)))
	rep.Failed = rep.Attempted - correct - probesOK
	rep.Stamp = stamp(o, w, m.final)
	rep.Stamp["latency_samples"] = len(m.open.lat)
	rep.Stamp["round_p99_ms"] = m.open.p99s
	rep.Stamp["steal_pct"] = m.stealPct
	return nil
}

// split divides measured seconds between the closed-loop segments (a
// third) and the open-loop segments (two thirds: the latency tail needs
// the samples more than throughput needs the windows).
func split(seconds float64) (closedD, openD time.Duration) {
	d := time.Duration(seconds * float64(time.Second))
	return d / 3, d - d/3
}

// equivalent drives one seeded demand stream through an untraced and
// a traced mediator, each over fresh releases, and requires the same
// status, winner, confidence presence and body for every demand.
func equivalent(o Options, w Workload, rep *Report) error {
	var runs [2][]Reply
	for i, trace := range []bool{false, true} {
		rels, err := StartReleases(w, o.Seed, nil, o.breakOldRelease)
		if err != nil {
			return err
		}
		p, err := spawn(o.MediatorBin, w, rels, filepath.Join(o.WorkDir, fmt.Sprintf("equiv%d", i)), trace)
		if err != nil {
			rels.Close()
			return err
		}
		gen := NewGenerator(w, o.Seed, streamProbe)
		cl := &client{w: w, addr: p.data}
		for range o.equivDemands() {
			r, err := cl.do(gen.Next())
			if err != nil {
				break
			}
			runs[i] = append(runs[i], r)
		}
		cl.close()
		err = p.stop()
		rels.Close()
		if err != nil {
			return err
		}
	}
	if len(runs[0]) != o.equivDemands() || len(runs[1]) != o.equivDemands() {
		rep.fail("%s: traced/untraced comparison: %d and %d of %d replies", w.Name, len(runs[0]), len(runs[1]), o.equivDemands())
		return nil
	}
	for i := range runs[0] {
		a, b := runs[0][i], runs[1][i]
		if a.Status != b.Status || a.Winner != b.Winner || a.Conf != b.Conf || string(a.Body) != string(b.Body) {
			rep.fail("%s: traced and untraced mediators differ on demand %d: status %d/%d winner %q/%q conf %v/%v body %.80q / %.80q",
				w.Name, i, a.Status, b.Status, a.Winner, b.Winner, a.Conf, b.Conf, a.Body, b.Body)
			return nil
		}
	}
	return nil
}

func runTraced(o Options, w Workload, rep *Report) error {
	if err := equivalent(o, w, rep); err != nil {
		return err
	}
	closedD, openD := split(o.Seconds / 2)
	u, err := measure(o, w, false, filepath.Join(o.WorkDir, "untraced"), closedD, openD, rep)
	if err != nil {
		return err
	}
	t, err := measure(o, w, true, filepath.Join(o.WorkDir, "traced"), closedD, openD, rep)
	if err != nil {
		return err
	}
	rep.Attempted = u.closed.attempted + u.open.attempted + t.closed.attempted + t.open.attempted
	demands := float64(t.closed.attempted + t.open.attempted)
	a := analyze(t.spans, t.drvSpans)
	if a.ReconcileErr > ReconcileTolerance || a.ReconcileErr < -ReconcileTolerance {
		rep.fail("%s: %.1f%% of traced layer time lies outside its demand's core.serve (tolerance %.0f%%)",
			w.Name, 100*a.ReconcileErr, 100*ReconcileTolerance)
	}
	rep.add("core.serve_p50_us", "us", a.ServeP50)
	rep.add("core.serve_p99_us", "us", a.ServeP99)
	rep.add("core.self_us", "us", a.CoreSelf)
	rep.add("nethttp.gap_p50_us", "us", a.GapP50)
	rep.add("protocol.decode_us", "us", a.Self[LayerDecode])
	rep.add("protocol.decode_reply_us", "us", a.Self[LayerDecodeReply])
	rep.add("protocol.equal_us", "us", a.Self[LayerEqual])
	rep.add("protocol.write_us", "us", a.Self[LayerWrite])
	rep.add("protocol.equal_calls_per_demand", "count", a.Calls[LayerEqual])
	rep.add("adjudicate.us", "us", a.Self[LayerAdjudicate])
	rep.add("adjudicate.calls_per_demand", "count", a.Calls[LayerAdjudicate])
	rep.add("oracle.judge_us", "us", a.Self[LayerJudge])
	judged := t.final.Judged
	rep.add("oracle.failed_ratio", "ratio", float64(t.final.JudgedFailed)/float64(max(judged, 1)))
	rep.add("monitor.sink_write_us", "us", a.Self[LayerSink])
	rep.add("monitor.sink_bytes_per_demand", "bytes", float64(t.final.SinkBytes)/float64(max(t.served, 1)))
	rep.add("monitor.records", "count", float64(t.final.Demands[w.Versions()[0]]))
	rep.add("service.serve_p50_us", "us", a.ServiceP50)
	rep.add("service.calls_per_demand", "count", float64(t.closed.calls+t.open.calls)/demands)
	rep.add("wire.dials", "count", float64(t.closed.dials+t.open.dials))
	rep.add("wire.bytes_per_demand", "bytes", float64(t.closed.bytes+t.open.bytes)/demands)
	rep.add("bayes.posterior_us", "us", float64(t.final.PosteriorNs)/1e3)
	rep.add("bayes.posteriors_per_demand", "count", float64(int64(t.confs)+t.final.Evaluations)/float64(max(t.served, 1)))
	rep.add("lifecycle.evaluations", "count", float64(t.final.Evaluations))
	rep.add("lifecycle.transitions", "count", float64(t.final.Transitions))
	rep.add("journal.entries", "count", float64(t.journal.Entries))
	rep.add("journal.bytes", "bytes", float64(t.journalBytes))

	// Runtime and harness figures come from the untraced half, whose
	// mediator allocates nothing for tracing.
	c := &u.closed
	rep.add("runtime.alloc_bytes_per_demand", "bytes", c.perDemand(float64(c.allocBytes)))
	rep.add("runtime.allocs_per_demand", "count", c.perDemand(float64(c.allocObjects)))
	rep.add("runtime.gc_cycles_per_kdemand", "count", c.perDemand(1000*float64(c.gcCycles)))
	rep.add("runtime.gc_pause_p99_us", "us", c.pauseP99()*1e6)
	rep.add("loadgen.late_p99_ms", "ms", quantile(u.open.late, 0.99))
	rep.add("loadgen.cpu_us_per_demand", "us", c.perDemand(float64(c.drvCPU.Microseconds())))

	ut, tt := iqm(u.closed.windows), iqm(t.closed.windows)
	up, tp := quantile(u.open.lat, 0.5), quantile(t.open.lat, 0.5)
	rep.add("trace.overhead_throughput_pct", "%", 100*(ut-tt)/math.Max(ut, 1e-9))
	rep.add("trace.overhead_latency_p50_pct", "%", 100*(tp-up)/math.Max(up, 1e-9))
	rep.add("trace.reconcile_err_pct", "%", 100*a.ReconcileErr)
	rep.Failed = rep.Attempted - (u.closed.correct + u.open.correct + t.closed.correct + t.open.correct)
	rep.Stamp = stamp(o, w, t.final)
	rep.Stamp["latency_samples"] = len(t.open.lat)
	rep.Stamp["steal_pct"] = t.stealPct
	return nil
}

// stamp records what produced a result.
func stamp(o Options, w Workload, st Stats) map[string]any {
	return map[string]any{
		"cpu_model":           cpuModel(),
		"nproc":               runtime.NumCPU(),
		"driver_gomaxprocs":   runtime.GOMAXPROCS(0),
		"mediator_gomaxprocs": st.GOMAXPROCS,
		"go":                  runtime.Version(),
		"mediator_go":         st.GoVersion,
		"commit":              o.Commit,
		"seed":                o.Seed,
		"workload":            w.Name,
		"traced":              o.Trace,
		"connections":         Conns,
		"open_loop_rate":      w.Rate,
		"seconds":             o.Seconds,
	}
}

// cpuTicks is the box's aggregate CPU time from /proc/stat.
type cpuTicks struct{ steal, total int64 }

func stealTicks() cpuTicks {
	var t cpuTicks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// share is the stolen share of the ticks since before, in percent.
func (t cpuTicks) share(before cpuTicks) float64 {
	if t.total == before.total {
		return 0
	}
	return 100 * float64(t.steal-before.steal) / float64(t.total-before.total)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Print writes every metric by name and unit, the stamp and any gate
// failures, for a reader.
func (r *Report) Print(out io.Writer) {
	for _, m := range r.Metrics {
		fmt.Fprintf(out, "%-36s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(r.Stamp))
	for k := range r.Stamp {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "stamp %-30s %v\n", k, r.Stamp[k])
	}
	for _, p := range r.Problems {
		fmt.Fprintf(out, "GATE FAILED: %s\n", p)
	}
}
