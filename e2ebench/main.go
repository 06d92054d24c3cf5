// Command e2ebench is the same-host end-to-end benchmark of the Cheetah
// reproduction. It stands the program up in process, drives one workload
// in a closed loop for a fixed time, checks every result against the
// exact direct oracle (engine.ExecDirect), and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics of a traced replay)
// as one JSON object on the last line of standard output.
//
//	go build -o e2ebench . && ./e2ebench --workload wire-mix --seed 1 --seconds 20 --trace 0
//
// run.sh builds and runs it from the repository root with the Go caches
// kept inside the checkout.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// gateCap bounds a measured phase's wall time, as a multiple of its
// target, while it waits for quiet windows.
const gateCap = 1.5

// Set-up is repeated at least config.setupReps times, and then until
// setupKeep set-ups ran under quiet host interference or setupMaxReps
// set-ups ran. setup_s is the median of the setupKeep quietest.
const (
	setupKeep    = 4
	setupMaxReps = 15
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale multiplies every table size; the self-test runs tiny tables.
	scale float64
	// setupReps is the least number of times the workload is set up;
	// the last set-up is the one measured.
	setupReps int
	// root is the repository checkout, the working directory of a run
	// (fingerprint and span output).
	root string
	out  io.Writer
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	c := &config{scale: 1, setupReps: 7, root: ".", out: os.Stdout}
	flag.StringVar(&c.workload, "workload", "", "workload: wire-mix, lib-sharded or wire-stream")
	flag.Uint64Var(&c.seed, "seed", 1, "seed for tables, batches and query jitter")
	flag.Float64Var(&c.seconds, "seconds", 20, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.Parse()
	c.trace = *traceFlag == 1
	res, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(c *config) (*result, error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == c.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	host := fingerprint(c)
	for _, k := range sortedKeys(host) {
		fmt.Fprintf(c.out, "host %-10s %v\n", k, host[k])
	}

	// Set up several times and keep the last; earlier set-ups are torn
	// down first so they do not weigh on the measured one.
	var setups, loads, skipBuilds []float64
	var e env
	for quiet := 0; len(setups) < c.setupReps || quiet < setupKeep && len(setups) < setupMaxReps; {
		if e != nil {
			e.close()
			runtime.GC()
		}
		l0, t0 := readLoad(), time.Now()
		var err error
		if e, err = def.setup(c); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, readLoad().since(l0))
		if loads[len(loads)-1] <= quietLoad {
			quiet++
		}
		skipBuilds = append(skipBuilds, ms(e.skipBuild()))
	}
	defer e.close()
	setup := quietMedian(setups, loads, setupKeep)
	fmt.Fprintf(c.out, "setup_s %.4f from samples %.4f at host interference %.3f\n", setup, setups, loads)
	warm := newRecorder()
	if err := e.prepare(warm); err != nil {
		return nil, err
	}
	warm.finish()
	warm.printSummary(c.out, c.workload+" warm-up (unmeasured)")
	// The heap is read here, where the program's state is fixed by the
	// inputs (one query cycle, or a fixed number of appends), and not
	// after the measured phase, whose appended rows grow with throughput.
	heap := liveHeapMB()
	fmt.Fprintf(c.out, "heap_live_mb %.4f after warm-up\n", heap)

	until := func(secs float64) time.Time { return time.Now().Add(time.Duration(secs * float64(time.Second))) }
	phases := []*recorder{warm}
	outcome := func(m map[string]metric) *result {
		r := &result{Metrics: m}
		for _, p := range phases {
			r.Attempted += p.attempted
			r.Failed += p.failed
		}
		r.Correct = r.Failed == 0
		// A metric with no samples can only come from ops that failed;
		// it is reported as 0 beside the failure count, since JSON has
		// no NaN.
		for k, v := range m {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				fmt.Fprintf(c.out, "metric %s has no samples\n", k)
				v.Value = 0
				m[k] = v
				r.Correct = false
			}
		}
		return r
	}
	measured := func(secs float64) *recorder {
		return newGatedRecorder(time.Duration(secs*float64(time.Second)), gateCap)
	}
	if !c.trace {
		rec := measured(c.seconds)
		e.measure(rec)
		rec.finish()
		e.verify(rec)
		rec.printSummary(c.out, c.workload)
		phases = append(phases, rec)
		return outcome(rec.endToEnd(setup, heap)), nil
	}

	// Traced run: an untraced phase for the reference end-to-end figures
	// and the Go runtime counters, then the traced replay of the same loop.
	plain := measured(c.seconds / 2)
	g0 := readGoCounters()
	e.measure(plain)
	plain.finish()
	g1 := readGoCounters()
	e.verify(plain)
	plain.printSummary(c.out, c.workload+" untraced")

	t := newTracer()
	for _, v := range skipBuilds {
		t.sample("table.skip_build_ms", v)
	}
	if plain.attempted > 0 {
		t.sample("go.alloc_kb_per_op", float64(g1.allocBytes-g0.allocBytes)/1024/float64(plain.attempted))
	}
	if cpu := g1.totalCPU - g0.totalCPU; cpu > 0 {
		t.sample("go.gc_cpu_frac", (g1.gcCPU-g0.gcCPU)/cpu)
	}
	traced := newRecorder()
	err := e.traced(t, until(c.seconds/2), traced)
	traced.finish()
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	traced.printSummary(c.out, c.workload+" traced")
	printOverhead(c.out, plain, traced)
	phases = append(phases, plain, traced)

	path := filepath.Join(c.root, ".bench_build", "e2ebench", fmt.Sprintf("spans-%s-seed%d.json", c.workload, c.seed))
	header := map[string]any{"workload": c.workload, "seed": c.seed, "host": host}
	if err := t.write(path, header); err != nil {
		return nil, err
	}
	fmt.Fprintf(c.out, "spans: %d written to %s\n", len(t.spans), path)
	m := t.layerMetrics()
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(c.out, "layer %-32s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return outcome(m), nil
}

// printOverhead prints the benchmark's own tracing overhead: the
// client-observed median of each kind in the traced phase against the
// untraced phase.
func printOverhead(w io.Writer, plain, traced *recorder) {
	fmt.Fprintln(w, "tracing overhead (traced vs untraced client-observed p50):")
	for k, name := range kindNames {
		a, b := median(plain.perKind[k]), median(traced.perKind[k])
		if len(plain.perKind[k]) == 0 || len(traced.perKind[k]) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-12s %9.3f ms -> %9.3f ms  (%+.1f%%)\n", name, a, b, 100*(b/a-1))
	}
	a, b := median(plain.visible), median(traced.visible)
	fmt.Fprintf(w, "  %-12s %9.3f ms -> %9.3f ms  (%+.1f%%)\n", "visible", a, b, 100*(b/a-1))
}

// fingerprint records what the numbers depend on: the host, the Go
// runtime and the program's source.
func fingerprint(c *config) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(c.root),
		"source":     sourceDigest(c.root),
		"seed":       c.seed,
		"workload":   c.workload,
		"scale":      c.scale,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit reads the checked-out commit when the root is a git work tree;
// benchmark checkouts usually are not, and carry the source digest only.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	id, err := os.ReadFile(filepath.Join(root, ".git", ref))
	if err != nil {
		return ref
	}
	return strings.TrimSpace(string(id))
}

// sourceDigest hashes every Go source and module file under root outside
// hidden directories: it identifies the program measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
