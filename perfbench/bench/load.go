package bench

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Conns is the driver's consumer connection count: nproc on the 2-vCPU
// box the benchmark is sized for.
const Conns = 2

// failedLatency stands in for a failed demand's latency: it misses any
// limit, like the client's 10 s deadline.
const failedLatency = 10 * time.Second

// Streams number the demand generators of one mediator's life, so IDs
// never repeat within it.
const (
	streamWarm      = 0
	streamProbe     = Conns
	streamClosed    = 2 * Conns
	streamOpen      = 3 * Conns
	streamsPerRound = 2 * Conns
)

// rounds is how many closed/open segment pairs a mediator measured
// for openD runs: as many as give each open segment at least
// minRoundDemands demands (so its p99 has ten beyond it), at most 24.
// More rounds make the median of their p99s robust to a spell of host
// interference in a few of them.
func rounds(rate float64, openD time.Duration) int {
	return min(max(int(rate*openD.Seconds()/minRoundDemands), 1), 24)
}

const minRoundDemands = 1000

// target is one live mediator under load, with its consumer counts.
type target struct {
	w      Workload
	p      *proc
	seed   uint64
	tracer *Tracer // driver-side client spans; nil untraced

	mu       sync.Mutex
	served   int // replies received (any status)
	confs    int // replies carrying a published confidence
	problems []string
}

func (t *target) note(d Demand, r Reply, err error) bool {
	ok := err == nil && r.Correct(t.w, d)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err == nil {
		t.served++
		if r.Conf {
			t.confs++
		}
	}
	if !ok && len(t.problems) < 5 {
		if err != nil {
			t.problems = append(t.problems, fmt.Sprintf("demand %x: %v", d.ID, err))
		} else {
			t.problems = append(t.problems, fmt.Sprintf("demand %x: status %d winner %q result %.60q want %.60q",
				d.ID, r.Status, r.Winner, Result(t.w.Protocol, r.Body), d.Want))
		}
	}
	return ok
}

// call sends one demand on cl, recording the client span when traced.
func (t *target) call(cl *client, d Demand) bool {
	start := now()
	r, err := cl.do(d)
	t.tracer.Record(d.ID, LayerClient, start, now())
	return t.note(d, r, err)
}

// segment is the outcome of one load segment, or of several merged.
type segment struct {
	attempted, correct int
	// windows holds correct replies per second in each closed-loop
	// window; lat and late the open loop's per-demand latency and
	// generator lateness; p99s each open-loop segment's p99 latency.
	windows         []float64
	lat, late, p99s []float64 // ms
	medCPU, drvCPU  time.Duration
	// Deltas of the mediator's runtime counters and GC pause histogram.
	allocBytes, allocObjects, gcCycles uint64
	pauseBuckets                       []float64
	pauses                             []uint64
	// Deltas of the releases' calls, accepted connections and bytes.
	calls, dials, bytes int64

	// Snapshots taken by begin, consumed by end.
	before    Stats
	relBefore [3]int64
}

// merge folds b into a.
func (a *segment) merge(b segment) {
	a.attempted += b.attempted
	a.correct += b.correct
	a.windows = append(a.windows, b.windows...)
	a.lat = append(a.lat, b.lat...)
	a.late = append(a.late, b.late...)
	a.p99s = append(a.p99s, b.p99s...)
	a.medCPU += b.medCPU
	a.drvCPU += b.drvCPU
	a.allocBytes += b.allocBytes
	a.allocObjects += b.allocObjects
	a.gcCycles += b.gcCycles
	if a.pauses == nil {
		a.pauseBuckets = b.pauseBuckets
		a.pauses = make([]uint64, len(b.pauses))
	}
	if len(a.pauses) == len(b.pauses) {
		for i := range b.pauses {
			a.pauses[i] += b.pauses[i]
		}
	}
	a.calls += b.calls
	a.dials += b.dials
	a.bytes += b.bytes
}

// perDemand divides by the segment's attempted demands.
func (a *segment) perDemand(v float64) float64 { return v / float64(max(a.attempted, 1)) }

// closedWindow is the closed-loop throughput window.
const closedWindow = 250 * time.Millisecond

// closedLoop runs Conns connections back to back for d.
func (t *target) closedLoop(rels *Releases, stream int, d time.Duration) (segment, error) {
	var seg segment
	if err := t.begin(&seg, rels); err != nil {
		return seg, err
	}
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var done []time.Duration
	var wg sync.WaitGroup
	for c := range Conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := NewGenerator(t.w, t.seed, stream+c)
			cl := &client{w: t.w, addr: t.p.data}
			defer cl.close()
			var mine []time.Duration
			n, ok := 0, 0
			for time.Now().Before(deadline) {
				n++
				if t.call(cl, gen.Next()) {
					ok++
					mine = append(mine, time.Since(start))
				}
			}
			mu.Lock()
			seg.attempted += n
			seg.correct += ok
			done = append(done, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	windows := make([]float64, int(d/closedWindow))
	for _, at := range done {
		if i := int(at / closedWindow); i < len(windows) {
			windows[i]++
		}
	}
	for i := range windows {
		windows[i] /= closedWindow.Seconds()
	}
	seg.windows = windows
	return seg, t.end(&seg, rels)
}

// openLoop sends demands at rate on a fixed schedule for d over Conns
// connections; each demand's latency runs from its due time.
func (t *target) openLoop(rels *Releases, stream int, rate float64, d time.Duration) (segment, error) {
	var seg segment
	if err := t.begin(&seg, rels); err != nil {
		return seg, err
	}
	n := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	seg.lat = make([]float64, n)
	seg.late = make([]float64, n)
	// Sized to the number of sends: the scheduler never blocks, so a
	// stalled mediator builds its backlog here, timed from due time.
	due := make(chan int, n)
	start := time.Now()
	go func() {
		for i := range n {
			at := start.Add(time.Duration(i) * interval)
			if wait := time.Until(at); wait > 0 {
				time.Sleep(wait)
			}
			seg.late[i] = ms(time.Since(at))
			due <- i
		}
		close(due)
	}()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := range Conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := NewGenerator(t.w, t.seed, stream+c)
			cl := &client{w: t.w, addr: t.p.data}
			defer cl.close()
			ok := 0
			for i := range due {
				at := start.Add(time.Duration(i) * interval)
				if t.call(cl, gen.Next()) {
					ok++
					seg.lat[i] = ms(time.Since(at))
				} else {
					seg.lat[i] = ms(failedLatency)
				}
			}
			mu.Lock()
			seg.correct += ok
			mu.Unlock()
		}()
	}
	wg.Wait()
	seg.attempted = n
	seg.p99s = []float64{quantile(append([]float64(nil), seg.lat...), 0.99)}
	return seg, t.end(&seg, rels)
}

func (t *target) begin(seg *segment, rels *Releases) error {
	var err error
	if seg.before, err = t.p.stats(false); err != nil {
		return err
	}
	seg.relBefore[0], seg.relBefore[1], seg.relBefore[2] = rels.Counts()
	if seg.medCPU, err = t.p.cpu(); err != nil {
		return err
	}
	seg.drvCPU = selfCPU()
	return nil
}

func (t *target) end(seg *segment, rels *Releases) error {
	cpu, err := t.p.cpu()
	if err != nil {
		return err
	}
	seg.medCPU = cpu - seg.medCPU
	seg.drvCPU = selfCPU() - seg.drvCPU
	calls, dials, bytes := rels.Counts()
	seg.calls, seg.dials, seg.bytes = calls-seg.relBefore[0], dials-seg.relBefore[1], bytes-seg.relBefore[2]
	after, err := t.p.stats(false)
	if err != nil {
		return err
	}
	b := seg.before
	seg.allocBytes = after.AllocBytes - b.AllocBytes
	seg.allocObjects = after.AllocObjects - b.AllocObjects
	seg.gcCycles = after.GCCycles - b.GCCycles
	if len(after.PauseCounts) == len(b.PauseCounts) {
		seg.pauseBuckets = after.PauseBuckets
		seg.pauses = make([]uint64, len(after.PauseCounts))
		for i := range seg.pauses {
			seg.pauses[i] = after.PauseCounts[i] - b.PauseCounts[i]
		}
	}
	return nil
}

// pauseP99 is the 99th percentile GC pause of the segment, in seconds
// (the upper bound of the histogram bucket it falls in).
func (a *segment) pauseP99() float64 {
	var total uint64
	for _, n := range a.pauses {
		total += n
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, n := range a.pauses {
		seen += n
		if seen >= need {
			if hi := a.pauseBuckets[i+1]; hi < math.MaxFloat64 {
				return hi
			}
			return a.pauseBuckets[i]
		}
	}
	return 0
}

// selfCPU is the driver process's user+sys CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of vs (sorted in place) by the
// nearest-rank rule.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(q*float64(len(vs))+0.5) - 1
	return vs[min(max(i, 0), len(vs)-1)]
}

// iqm is the interquartile mean: the mean of the middle half of vs.
func iqm(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, v := range s[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
