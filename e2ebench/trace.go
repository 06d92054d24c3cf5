package main

// The traced run. Spans are recorded by the benchmark around its calls
// into each layer's public functions, in the order the program makes
// them; the program itself is not instrumented. Each op has one op span
// and one child span per layer call. Spans stay in memory and are written
// as one file at the end. Layer spans are leaves, so their self time is
// their duration; a layer's metric is the median of those durations.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cheetah/internal/engine"
	"cheetah/internal/fabric"
	"cheetah/internal/plan"
	"cheetah/internal/serve"
	"cheetah/internal/table"
	"cheetah/internal/wire"
)

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds every span of a traced run, each layer call's duration
// (ns) keyed by "name" and "name.kind", and the per-op samples that are
// not span durations (ratios, byte counts, derived residuals).
type tracer struct {
	t0      time.Time
	next    atomic.Int64
	mu      sync.Mutex
	spans   []span
	durs    map[string][]float64
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), durs: map[string][]float64{}, samples: map[string][]float64{}}
}

func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// opSpan is an open op span; layer calls made for the op become its
// children.
type opSpan struct {
	t     *tracer
	id    int64
	name  string
	kind  string
	start time.Time
}

func (t *tracer) op(name, kind string) *opSpan {
	return &opSpan{t: t, id: t.next.Add(1), name: name, kind: kind, start: time.Now()}
}

// call runs fn as one layer call of the op and records its span.
func (o *opSpan) call(name, kind string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	d := end.Sub(start)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, span{
		ID: o.t.next.Add(1), Parent: o.id, Op: o.id, Name: name, Kind: kind,
		Start: int64(start.Sub(o.t.t0)), End: int64(end.Sub(o.t.t0)),
	})
	o.t.durs[name] = append(o.t.durs[name], float64(d))
	if kind != "" {
		o.t.durs[name+"."+kind] = append(o.t.durs[name+"."+kind], float64(d))
	}
	o.t.mu.Unlock()
	return d, err
}

func (o *opSpan) end() {
	end := time.Now()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, span{
		ID: o.id, Op: o.id, Name: o.name, Kind: o.kind,
		Start: int64(o.start.Sub(o.t.t0)), End: int64(end.Sub(o.t.t0)),
	})
	o.t.mu.Unlock()
}

// write stores the spans and the run's header as one JSON file.
func (t *tracer) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	b, err := json.Marshal(map[string]any{"run": header, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerMetrics reduces the spans and samples to the per-layer metric set.
func (t *tracer) layerMetrics() map[string]metric {
	m := map[string]metric{}
	us := func(key string) float64 { return median(t.durs[key]) / 1e3 }
	msOf := func(key string) float64 { return median(t.durs[key]) / 1e6 }
	m["netserve.self_us"] = metric{median(t.samples["netserve.self_us"]), "us"}
	m["netserve.append_rtt_us"] = metric{median(t.samples["netserve.append_rtt_us"]), "us"}
	m["netserve.credit_stalls"] = metric{median(t.samples["netserve.credit_stalls"]), "count"}
	m["wire.req_codec_us"] = metric{us("wire.req_codec"), "us"}
	m["wire.bind_us"] = metric{us("wire.bind"), "us"}
	m["fabric.admit_us"] = metric{median(t.samples["fabric.admit_us"]) + median(t.samples["fabric.release_us"]), "us"}
	m["table.skip_build_ms"] = metric{median(t.samples["table.skip_build_ms"]), "ms"}
	m["stream.append_us"] = metric{us("stream.append"), "us"}
	m["obs.overhead_frac"] = metric{median(t.samples["obs.overhead_frac"]), "frac"}
	m["go.alloc_kb_per_op"] = metric{median(t.samples["go.alloc_kb_per_op"]), "KB"}
	m["go.gc_cpu_frac"] = metric{median(t.samples["go.gc_cpu_frac"]), "frac"}
	for _, k := range kindNames {
		m["wire.result_codec_us."+k] = metric{us("wire.result_codec." + k), "us"}
		m["wire.result_bytes."+k] = metric{median(t.samples["wire.result_bytes."+k]), "bytes"}
		m["wire.update_codec_us."+k] = metric{us("wire.update_codec." + k), "us"}
		m["plan.plan_us."+k] = metric{us("plan.plan." + k), "us"}
		m["plan.regret_frac."+k] = metric{median(t.samples["plan.regret_frac."+k]), "frac"}
		m["engine.fused_ms."+k] = metric{msOf("engine.fused." + k), "ms"}
		m["engine.sharded_ms."+k] = metric{msOf("engine.sharded." + k), "ms"}
		m["engine.direct_ms."+k] = metric{msOf("engine.direct." + k), "ms"}
		m["prune.unpruned_frac."+k] = metric{median(t.samples["prune.unpruned_frac."+k]), "frac"}
		m["table.skip_frac."+k] = metric{median(t.samples["table.skip_frac."+k]), "frac"}
		m["stream.flush_us."+k] = metric{us("stream.flush." + k), "us"}
	}
	return m
}

// replayer re-issues one query through every layer the program would
// call for it, each as a child span of the op: wire request codec, bind,
// plan, admission, the fused single-switch pass under the placement's
// lease, release, and the result codec. It then runs the exact arms the
// planner chooses between (direct with skipping, and the 2-switch
// scatter/gather pass) to measure the chosen arm's regret, and one
// ExecPlan pair with tracing on and off to measure the program's own
// tracing overhead. Every arm's result is checked against the reference.
type replayer struct {
	tables map[string]*table.Table
	// sess1 plans as a served query does (whole query on one switch);
	// sess2 plans as the 2-switch library session does; sess2NT is sess2
	// with the program's tracing disabled.
	sess1, sess2, sess2NT *plan.Session
	fab                   *fabric.Fabric
	serving               *plan.Serving // owned when no server fabric was given
	pairs                 atomic.Int64
}

func newReplayer(visits, rankings *table.Table, fab *fabric.Fabric, seed uint64) (*replayer, error) {
	r := &replayer{tables: map[string]*table.Table{"visits": visits, "rankings": rankings}}
	var err error
	if r.sess1, err = plan.Open(visits, plan.Options{Switches: 1, Workers: 1, Seed: seed}); err != nil {
		return nil, err
	}
	if r.sess2, err = plan.Open(visits, plan.Options{Switches: 2, Workers: 1, Seed: seed}); err != nil {
		return nil, err
	}
	if r.sess2NT, err = plan.Open(visits, plan.Options{Switches: 2, Workers: 1, Seed: seed, DisableTracing: true}); err != nil {
		return nil, err
	}
	r.fab = fab
	if fab == nil {
		if r.serving, err = r.sess2.Serve(context.Background(), plan.ServeOptions{}); err != nil {
			return nil, err
		}
		r.fab = r.serving.Fabric()
	}
	return r, nil
}

func (r *replayer) close() {
	if r.serving != nil {
		r.serving.Close()
	}
	r.sess1.Close()
	r.sess2.Close()
	r.sess2NT.Close()
}

func checkResult(res *engine.Result, ref digest, arm string) error {
	if digestOf(res.Columns, res.Rows) != ref {
		return fmt.Errorf("%w: %s arm differs from ExecDirect", errMismatch, arm)
	}
	return nil
}

// replay runs the layer calls for one query op. lib selects the library
// session's plan (2 switches) as the chosen arm; otherwise the served
// plan (one switch) is. It returns the summed time of the codec and bind
// calls, for the front door's residual.
func (r *replayer) replay(t *tracer, o *opSpan, spec wire.QuerySpec, ref digest, lib bool) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	// frontDoor sums the calls the server makes outside the execution
	// its result reports as WallNanos: request decode, bind, result
	// encode.
	var frontDoor time.Duration
	add := func(d time.Duration, err error) error { frontDoor += d; return err }

	kind := engine.QueryKind(spec.Kind).String()
	if err := add(o.call("wire.req_codec", "", func() error {
		req := wire.QueryReq{ID: uint64(o.id), Spec: spec}
		var back wire.QueryReq
		return back.DecodeBody(req.EncodeBody(nil))
	})); err != nil {
		return 0, err
	}
	var q *engine.Query
	if err := add(o.call("wire.bind", "", func() (err error) { q, err = spec.Bind(r.tables); return })); err != nil {
		return 0, err
	}
	var p1, p2 *plan.Plan
	planSess, planOut := r.sess1, &p1
	if lib {
		planSess, planOut = r.sess2, &p2
	}
	if _, err := o.call("plan.plan", kind, func() (err error) { *planOut, err = planSess.Plan(q); return }); err != nil {
		return 0, err
	}
	var err error
	if lib {
		p1, err = r.sess1.Plan(q)
	} else {
		p2, err = r.sess2.Plan(q)
	}
	if err != nil {
		return 0, err
	}

	arms := map[string]time.Duration{}
	type armStats struct{ unpruned, skipped float64 }
	stats := map[string]armStats{}
	rows := float64(q.Table.NumRows())
	// The single-switch fused arm. A served plan admits its program and
	// runs under the placement's lease; a query the planner sends direct
	// still gets the arm with the engine's default program, unplaced, so
	// the regret base is always complete.
	opts := engine.CheetahOptions{Workers: p1.Workers, Seed: p1.Seed}
	var pl *fabric.Placement
	if p1.Mode != plan.ModeDirect {
		if opts.Pruner, err = p1.NewPruner(); err != nil {
			return 0, err
		}
		dA, err := o.call("fabric.admit", "", func() (err error) {
			pl, err = r.fab.AdmitQoS(ctx, opts.Pruner, serve.QoS{Tenant: "e2ebench"})
			return
		})
		if err != nil {
			return 0, err
		}
		opts.Flow = pl.Lease
		t.sample("fabric.admit_us", float64(dA)/1e3)
	}
	var run *engine.CheetahRun
	dF, err := o.call("engine.fused", kind, func() (err error) { run, err = engine.ExecCheetah(q, opts); return })
	if pl != nil {
		dR, _ := o.call("fabric.release", "", func() error { pl.Release(); return nil })
		t.sample("fabric.release_us", float64(dR)/1e3)
	}
	if err != nil {
		return 0, err
	}
	if err := checkResult(run.Result, ref, "fused"); err != nil {
		return 0, err
	}
	arms["fused"] = dF
	stats["fused"] = armStats{run.UnprunedFraction(), float64(run.Skipped.RowsSkipped) / rows}

	var dres *engine.Result
	var dskip engine.SkipStats
	dD, err := o.call("engine.direct", kind, func() (err error) { dres, dskip, err = engine.ExecDirectSkip(q); return })
	if err != nil {
		return 0, err
	}
	if err := checkResult(dres, ref, "direct"); err != nil {
		return 0, err
	}
	arms["direct"] = dD
	stats["direct"] = armStats{1, float64(dskip.RowsSkipped) / rows}

	if err := add(o.call("wire.result_codec", kind, func() error {
		msg := wire.ResultMsg{ID: uint64(o.id), Columns: run.Result.Columns, Rows: run.Result.Rows}
		b := msg.EncodeBody(nil)
		t.sample("wire.result_bytes."+kind, float64(len(b)))
		var back wire.ResultMsg
		return back.DecodeBody(b)
	})); err != nil {
		return 0, err
	}

	// The 2-switch scatter/gather arm, with the planner's per-switch
	// programs when it sized them and the engine's defaults otherwise.
	sopts := engine.ShardedOptions{Shards: 2, Workers: p2.Workers, Seed: p2.Seed, Skip: true}
	if p2.Mode != plan.ModeDirect {
		if sopts.Pruners, err = p2.NewShardPruners(); err != nil {
			return 0, err
		}
		sopts.Shards, sopts.Skip = p2.Switches, p2.Skip
	}
	var srun *engine.ShardedRun
	dS, err := o.call("engine.sharded", kind, func() (err error) { srun, err = engine.ExecSharded(q, sopts); return })
	if err != nil {
		return 0, err
	}
	if err := checkResult(srun.Result, ref, "sharded"); err != nil {
		return 0, err
	}
	arms["sharded"] = dS
	unpruned := 0.0
	if srun.Traffic.EntriesSent > 0 {
		unpruned = float64(srun.Traffic.Forwarded) / float64(srun.Traffic.EntriesSent)
	}
	stats["sharded"] = armStats{unpruned, float64(srun.Skipped.RowsSkipped) / rows}

	chosen := "fused"
	switch {
	case lib && p2.Mode == plan.ModeDirect, !lib && p1.Mode == plan.ModeDirect:
		chosen = "direct"
	case lib && p2.Switches > 1:
		chosen = "sharded"
	}
	best := time.Duration(math.MaxInt64)
	for _, d := range arms {
		best = min(best, d)
	}
	t.sample("plan.regret_frac."+kind, float64(arms[chosen])/float64(best)-1)
	t.sample("prune.unpruned_frac."+kind, stats[chosen].unpruned)
	t.sample("table.skip_frac."+kind, stats[chosen].skipped)

	// The program's own tracing overhead: the same query planned on a
	// traced and an untraced session, executed back to back in
	// alternating order.
	pNT, err := r.sess2NT.Plan(q)
	if err != nil {
		return 0, err
	}
	var on, off time.Duration
	runOn := func() error {
		var ex *plan.Execution
		d, err := o.call("obs.exec_traced", kind, func() (err error) { ex, err = r.sess2.ExecPlan(ctx, p2); return })
		on = d
		if err != nil {
			return err
		}
		return checkResult(ex.Result, ref, "traced ExecPlan")
	}
	runOff := func() error {
		var ex *plan.Execution
		d, err := o.call("obs.exec_untraced", kind, func() (err error) { ex, err = r.sess2NT.ExecPlan(ctx, pNT); return })
		off = d
		if err != nil {
			return err
		}
		return checkResult(ex.Result, ref, "untraced ExecPlan")
	}
	first, second := runOn, runOff
	if r.pairs.Add(1)%2 == 0 {
		first, second = runOff, runOn
	}
	if err := first(); err != nil {
		return 0, err
	}
	if err := second(); err != nil {
		return 0, err
	}
	t.sample("obs.overhead_frac", float64(on)/float64(off)-1)
	return frontDoor, nil
}
