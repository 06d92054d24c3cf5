package main

// Measurement plumbing shared by the workloads: op accounting, latency
// samples, the end-to-end metric set, and Go runtime counters.

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// opTimeout bounds every measured op. An op with no reply by then counts
// as failed instead of hanging the run (a server that drops a reply, for
// instance one too large for a frame, would otherwise stall the loop).
const opTimeout = 30 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// recorder collects one measured phase's ops. Latencies are kept per
// kind (the per-kind completion metrics) and per op (the visible
// metrics); failures are counted against attempts.
//
// A gated recorder also samples the host once a second. The machine is
// shared: in a window where other tenants take CPU (hypervisor steal, or
// other processes' busy time) every op slows down, by up to half on this
// host. The phase keeps running until it holds target seconds of quiet
// windows (interference at most quietLoad) or reaches its cap, and the
// metrics come from the ops that completed in the quietest windows
// totalling target. Failures count in every window.
type recorder struct {
	mu         sync.Mutex
	ops        []opSample
	attempted  int
	failed     int
	mismatched int
	firstErr   error
	start, end time.Time

	target  time.Duration
	cap     time.Time
	windows []window
	quiet   time.Duration
	stop    chan struct{}
	stopped chan struct{}

	// Set by finish: the samples of the kept windows and their length.
	perKind [8][]float64 // ms
	visible []float64    // ms, one per op
	results int          // query results delivered to the client
	rows    int64        // input rows fed to the program
	kept    time.Duration
	load    [2]float64 // mean interference of the kept and of all windows
}

type opSample struct {
	end     time.Time
	kinds   []int
	lat     []time.Duration
	visible time.Duration
	rows    int
}

type window struct {
	start, end time.Time
	load       float64
}

// quietLoad is the largest share of the host's CPU time that other
// tenants may take in a window the metrics are drawn from. Both CPUs
// carry the program (parallel shards, the collector), so a small share
// already costs more than its size: on a 2-vCPU Xeon, lib-sharded ran
// about 15% slower at 4-6%. The floor with the host otherwise idle is
// about 1%.
const quietLoad = 0.03

// newRecorder starts an ungated phase: every op counts.
func newRecorder() *recorder { return &recorder{start: time.Now()} }

// newGatedRecorder starts a phase that collects target seconds of quiet
// windows, running at most capFactor times as long.
func newGatedRecorder(target time.Duration, capFactor float64) *recorder {
	r := &recorder{
		start: time.Now(), target: target,
		stop: make(chan struct{}), stopped: make(chan struct{}),
	}
	r.cap = r.start.Add(time.Duration(capFactor * float64(target)))
	go r.sample()
	return r
}

func (r *recorder) sample() {
	defer close(r.stopped)
	tk := time.NewTicker(time.Second)
	defer tk.Stop()
	prev, at := readLoad(), r.start
	for {
		select {
		case <-r.stop:
			return
		case now := <-tk.C:
			cur := readLoad()
			w := window{start: at, end: now, load: cur.since(prev)}
			r.mu.Lock()
			r.windows = append(r.windows, w)
			if w.load <= quietLoad {
				r.quiet += w.end.Sub(w.start)
			}
			r.mu.Unlock()
			prev, at = cur, now
		}
	}
}

// running reports whether a gated phase still needs ops: it has not
// collected its quiet target and has not reached its cap.
func (r *recorder) running() bool {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.quiet < r.target && now.Before(r.cap)
}

// fail counts one failed op: an error, a timeout, or (mismatch) a result
// that differs from the reference.
func (r *recorder) fail(mismatch bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if mismatch {
		r.mismatched++
	}
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// ok counts one completed op: its per-kind result latencies, its
// visible latency, and the input rows it fed the program.
func (r *recorder) ok(kinds []int, lat []time.Duration, visible time.Duration, rows int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.ops = append(r.ops, opSample{time.Now(), kinds, lat, visible, rows})
}

// finish ends the phase and keeps the samples the metrics use.
func (r *recorder) finish() {
	r.end = time.Now()
	if r.stop != nil {
		close(r.stop)
		<-r.stopped
	}
	keep := r.keptWindows()
	for _, op := range r.ops {
		if !inWindows(keep, op.end) {
			continue
		}
		for i, k := range op.kinds {
			r.perKind[k] = append(r.perKind[k], ms(op.lat[i]))
		}
		r.results += len(op.kinds)
		r.visible = append(r.visible, ms(op.visible))
		r.rows += int64(op.rows)
	}
	var all float64
	for _, w := range keep {
		r.kept += w.end.Sub(w.start)
		r.load[0] += w.load / float64(len(keep))
	}
	for _, w := range r.windows {
		all += w.load / float64(len(r.windows))
	}
	r.load[1] = all
}

// keptWindows picks the windows the metrics are drawn from: every quiet
// window once the target is met, otherwise the quietest windows that
// together reach it. An ungated phase is one window.
func (r *recorder) keptWindows() []window {
	if r.target == 0 || len(r.windows) == 0 {
		return []window{{start: r.start, end: r.end}}
	}
	ws := append([]window(nil), r.windows...)
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].load < ws[j].load })
	var keep []window
	var total time.Duration
	for _, w := range ws {
		if total >= r.target && w.load > quietLoad {
			break
		}
		keep = append(keep, w)
		total += w.end.Sub(w.start)
	}
	return keep
}

func inWindows(ws []window, t time.Time) bool {
	for _, w := range ws {
		if !t.Before(w.start) && t.Before(w.end) {
			return true
		}
	}
	return false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quietMedian is the median of the keep values (all, if fewer) taken
// under the least host interference.
func quietMedian(vals, loads []float64, keep int) float64 {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return loads[idx[a]] < loads[idx[b]] })
	var quiet []float64
	for _, i := range idx[:min(keep, len(idx))] {
		quiet = append(quiet, vals[i])
	}
	return median(quiet)
}

// endToEnd turns a measured phase into the end-to-end metric set. Every
// workload reports every metric; what an op and a result are differs per
// workload and is documented in BENCHMARK.json.
func (r *recorder) endToEnd(setup, heapMB float64) map[string]metric {
	secs := r.kept.Seconds()
	m := map[string]metric{
		"setup_s":        {setup, "s"},
		"qps":            {float64(r.results) / secs, "1/s"},
		"rows_per_s":     {float64(r.rows) / secs, "rows/s"},
		"visible_p50_ms": {median(r.visible), "ms"},
		"visible_p99_ms": {quantile(r.visible, 0.99), "ms"},
		"heap_live_mb":   {heapMB, "MB"},
	}
	for k, name := range kindNames {
		m["p50_ms."+name] = metric{median(r.perKind[k]), "ms"}
	}
	return m
}

// printSummary writes the phase's per-kind latency table (with tails and
// sample counts) and its op accounting.
func (r *recorder) printSummary(w io.Writer, label string) {
	fmt.Fprintf(w, "%s: %.2fs run, %.2fs kept, attempted %d, failed %d (mismatched %d), %d results kept\n",
		label, r.end.Sub(r.start).Seconds(), r.kept.Seconds(), r.attempted, r.failed, r.mismatched, r.results)
	if r.target > 0 {
		fmt.Fprintf(w, "  host interference: %.1f%% in kept windows, %.1f%% over the run (%d windows)\n",
			100*r.load[0], 100*r.load[1], len(r.windows))
	}
	fmt.Fprintf(w, "  %-12s %6s %9s %9s %9s %12s\n", "kind", "n", "p50_ms", "p90_ms", "p99_ms", "n>p99")
	for k, name := range kindNames {
		xs := r.perKind[k]
		if len(xs) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-12s %6d %9.3f %9.3f %9.3f %12d\n", name, len(xs),
			median(xs), quantile(xs, 0.9), quantile(xs, 0.99), len(xs)/100)
	}
	fmt.Fprintf(w, "  %-12s %6d %9.3f %9.3f %9.3f %12d\n", "visible", len(r.visible),
		median(r.visible), quantile(r.visible, 0.9), quantile(r.visible, 0.99), len(r.visible)/100)
	if r.firstErr != nil {
		fmt.Fprintf(w, "  first failure: %v\n", r.firstErr)
	}
}

// liveHeapMB forces a collection and returns the live Go heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// hostLoad is a reading of the host's cumulative CPU ticks: all of them,
// those stolen by the hypervisor, those busy in user or system mode in
// any process, and this process's own.
type hostLoad struct{ total, steal, busy, self uint64 }

func readLoad() hostLoad {
	var l hostLoad
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		// user nice system idle iowait irq softirq steal; the guest
		// fields that follow are already counted in user and nice.
		// Interrupt time is left out of busy: loopback traffic of this
		// process is served there and cannot be told apart.
		for i, f := range strings.Fields(line)[1:] {
			if i > 7 {
				break
			}
			n, _ := strconv.ParseUint(f, 10, 64)
			l.total += n
			switch i {
			case 0, 1, 2:
				l.busy += n
			case 7:
				l.steal = n
			}
		}
	}
	// utime and stime are the 12th and 13th fields after the command
	// name, which may itself hold spaces.
	if b, err := os.ReadFile("/proc/self/stat"); err == nil {
		if _, rest, ok := strings.Cut(string(b), ") "); ok {
			if f := strings.Fields(rest); len(f) > 12 {
				u, _ := strconv.ParseUint(f[11], 10, 64)
				s, _ := strconv.ParseUint(f[12], 10, 64)
				l.self = u + s
			}
		}
	}
	return l
}

// since is the share of the host's CPU time between two readings that
// other tenants took: stolen ticks plus other processes' busy ticks.
func (l hostLoad) since(p hostLoad) float64 {
	total := float64(l.total - p.total)
	if total <= 0 {
		return 0
	}
	others := float64(l.busy-p.busy) - float64(l.self-p.self)
	return (float64(l.steal-p.steal) + max(others, 0)) / total
}

// goCounters samples the runtime's cumulative allocation and CPU
// accounting, so a phase's allocation per op and GC CPU share are the
// difference of two samples.
type goCounters struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readGoCounters() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}
