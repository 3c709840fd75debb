package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/bayes"
	"wsupgrade/internal/core"
	"wsupgrade/internal/fleet"
	"wsupgrade/internal/lifecycle"
	"wsupgrade/internal/monitor"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/protocol"
	"wsupgrade/internal/protocol/jsoncodec"
	"wsupgrade/internal/protocol/soapcodec"
	"wsupgrade/internal/service"
	"wsupgrade/internal/stats"
)

// Mediator is one workload's fleet, built only through the public
// constructors, with the benchmark's seams attached when traced.
type Mediator struct {
	fleet       *fleet.Fleet
	handler     http.Handler
	log         *os.File
	tracer      *Tracer
	counters    Counters
	transitions atomic.Int64
}

// CampaignFleetJSON returns the cmd/upgraded -fleet configuration
// equal to the campaign workload's unit (the config-drift test runs
// the shipped binary with it). The mediator's copy of engineConfig's
// defaults is campaignEngine below.
func CampaignFleetJSON(releases []core.Endpoint, logPath string) ([]byte, error) {
	return json.Marshal(map[string]any{
		"units": []map[string]any{{
			"name":       UnitName,
			"phase":      "observation",
			"criterion":  3,
			"confidence": 0.99,
			"checkEvery": 100,
			"oracle":     "reference",
			"log":        logPath,
			"releases":   releases,
		}},
	})
}

// campaignEngine mirrors cmd/upgraded's engineConfig for a SOAP unit
// with criterion 3 at 0.99, checked every 100 demands, the reference
// oracle and the default -target 1e-3 and -pfd-upper 0.1.
func campaignEngine(releases []core.Endpoint, codec protocol.Codec) core.Config {
	prior := stats.ScaledBeta{Alpha: 1, Beta: 3, Upper: 0.1}
	contract := service.DemoContract(releases[len(releases)-1].Version)
	return core.Config{
		Releases:     releases,
		InitialPhase: core.PhaseObservation,
		Codec:        codec,
		Oracle:       oracle.Reference{Release: releases[0].Version, Codec: codec},
		Inference: &bayes.WhiteBoxConfig{
			PriorA: prior, PriorB: prior,
			GridA: 60, GridB: 60, GridC: 16, GridAB: 80,
		},
		ConfidenceTarget: 1e-3,
		PublishHeader:    true,
		EnableConfOps:    true,
		Contract:         &contract,
		Policy: &core.PolicyConfig{
			Criterion:  bayes.Criterion3{Confidence: 0.99},
			CheckEvery: 100,
		},
	}
}

// NewMediator builds the workload's fleet over the given releases. dir
// holds the campaign's journal and event log. A non-nil tracer wraps
// the handler, codec, oracle, adjudicator, criterion and event log.
func NewMediator(w Workload, releases []core.Endpoint, dir string, t *Tracer) (*Mediator, error) {
	m := &Mediator{tracer: t}
	var codec protocol.Codec // nil: the unit's default (SOAP), as cmd/upgraded leaves it
	if w.Protocol == "json" {
		codec = jsoncodec.Default
	}
	if t != nil {
		if codec == nil {
			codec = soapcodec.Default
		}
		codec = TraceCodec(codec, t)
	}
	var ecfg core.Config
	fcfg := fleet.Config{}
	switch w.Name {
	case "fastpath":
		ecfg = core.Config{Releases: releases, InitialPhase: core.PhaseOldOnly, Codec: codec}
	case "campaign":
		ecfg = campaignEngine(releases, codec)
		f, err := os.OpenFile(filepath.Join(dir, "events.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("opening event log: %w", err)
		}
		m.log = f
		ecfg.Store = f
		fcfg.JournalDir = dir
	case "bulk-json":
		ecfg = core.Config{
			Releases:     releases,
			InitialPhase: core.PhaseParallel,
			Codec:        codec,
			Adjudicator:  adjudicate.Majority{},
			Oracle:       oracle.BackToBack{Codec: codec},
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w.Name)
	}
	if t != nil {
		if ecfg.Oracle == nil {
			ecfg.Oracle = oracle.FaultOnly{}
		}
		if ecfg.Adjudicator == nil {
			ecfg.Adjudicator = adjudicate.RandomValid{}
		}
		ecfg.Oracle = TraceOracle(ecfg.Oracle, t, &m.counters)
		ecfg.Adjudicator = TraceAdjudicator(ecfg.Adjudicator, t)
		if ecfg.Policy != nil {
			ecfg.Policy.Criterion = CountCriterion(ecfg.Policy.Criterion, &m.counters)
		}
		if ecfg.Store != nil {
			ecfg.Store = TimeWriter(ecfg.Store, t, &m.counters)
		}
	}
	fcfg.Units = []fleet.UnitConfig{{Name: UnitName, Engine: ecfg}}
	f, err := fleet.New(fcfg)
	if err != nil {
		if m.log != nil {
			_ = m.log.Close()
		}
		return nil, err
	}
	m.fleet = f
	f.OnTransition(func(lifecycle.Transition) { m.transitions.Add(1) })
	m.handler = f
	if t != nil {
		m.handler = t.Handler(f, ecfg.Store != nil)
	}
	return m, nil
}

// Handler is the consumer-facing front door.
func (m *Mediator) Handler() http.Handler { return m.handler }

// Close drains the fleet (flushing the journal) and closes the log.
func (m *Mediator) Close() error {
	err := m.fleet.Close()
	if m.log != nil {
		if cerr := m.log.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Stats is the mediator's state as the control endpoint reports it.
type Stats struct {
	GOMAXPROCS   int               `json:"gomaxprocs"`
	GoVersion    string            `json:"go"`
	Phase        string            `json:"phase"`
	Transitions  int64             `json:"transitions"`
	Evaluations  int64             `json:"evaluations"`
	Joint        bayes.JointCounts `json:"joint"`
	Demands      map[string]int    `json:"demands"`
	Judged       int64             `json:"judged"`
	JudgedFailed int64             `json:"judged_failed"`
	SinkBytes    int64             `json:"sink_bytes"`
	// PosteriorNs is the median time of Engine.Confidence("") at the
	// current counts (0 without inference, or when not asked for).
	PosteriorNs  int64     `json:"posterior_ns"`
	AllocBytes   uint64    `json:"alloc_bytes"`
	AllocObjects uint64    `json:"alloc_objects"`
	GCCycles     uint64    `json:"gc_cycles"`
	PauseBuckets []float64 `json:"pause_buckets"`
	PauseCounts  []uint64  `json:"pause_counts"`
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

// Stats snapshots the unit's monitor, lifecycle, counters and runtime.
func (m *Mediator) Stats(posterior bool) (Stats, error) {
	u, err := m.fleet.Unit(UnitName)
	if err != nil {
		return Stats{}, err
	}
	e := u.Engine()
	st := Stats{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Phase:        e.Phase().String(),
		Transitions:  m.transitions.Load(),
		Evaluations:  m.counters.Evaluations.Load(),
		Joint:        e.Monitor().Joint(),
		Demands:      map[string]int{},
		Judged:       m.counters.Judged.Load(),
		JudgedFailed: m.counters.JudgedFailed.Load(),
		SinkBytes:    m.counters.SinkBytes.Load(),
	}
	for _, rel := range e.Releases() {
		rs, err := e.Stats(rel.Version)
		if err != nil && !errors.Is(err, monitor.ErrUnknownRelease) {
			return Stats{}, err
		}
		st.Demands[rel.Version] = rs.Demands
	}
	if posterior {
		var times []int64
		for range 7 {
			start := time.Now()
			if _, err := e.Confidence(""); err != nil {
				if errors.Is(err, core.ErrNoInference) {
					break
				}
				return Stats{}, err
			}
			times = append(times, int64(time.Since(start)))
		}
		if len(times) > 0 {
			sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
			st.PosteriorNs = times[len(times)/2]
		}
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	st.AllocBytes = samples[0].Value.Uint64()
	st.AllocObjects = samples[1].Value.Uint64()
	st.GCCycles = samples[2].Value.Uint64()
	if h := samples[3].Value; h.Kind() == metrics.KindFloat64Histogram {
		hist := h.Float64Histogram()
		// JSON has no infinities: the open-ended first and last
		// bucket bounds are clamped.
		st.PauseBuckets = make([]float64, len(hist.Buckets))
		for i, b := range hist.Buckets {
			st.PauseBuckets[i] = max(min(b, math.MaxFloat64), -math.MaxFloat64)
		}
		st.PauseCounts = hist.Counts
	}
	return st, nil
}

// ControlHandler serves the benchmark's control surface on its own
// listener, apart from the measured front door:
//
//	GET /stats[?posterior=1] → Stats as JSON
//	GET /spans               → the mediator's spans (WriteSpans format)
func (m *Mediator) ControlHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Stats(r.URL.Query().Get("posterior") == "1")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		var spans []Span
		if m.tracer != nil {
			spans = m.tracer.Spans()
		}
		_ = WriteSpans(w, spans)
	})
	return mux
}

// ParseReleases parses "version=url" release arguments.
func ParseReleases(args []string) ([]core.Endpoint, error) {
	out := make([]core.Endpoint, 0, len(args))
	for _, a := range args {
		v, u, ok := strings.Cut(a, "=")
		if !ok || v == "" || u == "" {
			return nil, fmt.Errorf("release must be version=url, got %q", a)
		}
		out = append(out, core.Endpoint{Version: v, URL: u})
	}
	return out, nil
}
