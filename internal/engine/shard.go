package engine

// This file implements the multi-switch scatter/gather execution path:
// the table is sharded across N switches (the paper's deployment shape,
// where each rack's ToR switch prunes its own workers' streams), each
// shard runs its compiled pruning pass (fuse_shard.go) concurrently on
// its own switch program, and the master performs a two-level merge —
// shard-local partials first (fingerprint dedupe, TOP N heaps, aggregate
// maps), then a global combine — that reproduces ExecDirect's result
// exactly for every query kind.
//
// Correctness per kind under arbitrary sharding:
//
//   - FILTER / SKYLINE: each switch forwards a superset of its shard's
//     matching/non-dominated rows; the master maps survivors to rows of
//     the original table and re-runs the exact completion over their
//     union there. skyline(S) = skyline(T) whenever skyline(T) ⊆ S ⊆ T.
//   - TOP N: every global top-N value is in its shard's local top N, so
//     per-shard N-heaps followed by a tightened global N-heap re-check
//     lose nothing.
//   - DISTINCT / GROUP BY: partials merge by the worker-computed
//     fingerprint, which is seed-consistent across shards; merging is
//     dedupe / max / sum respectively.
//   - HAVING: a key with global sum S > T has some shard with local sum
//     ≥ ⌈S/k⌉ > ⌊T/k⌋, so per-shard sketches thresholded at ⌊T/k⌋
//     surface every true positive; the global second pass re-computes
//     exact sums and drops the extra false positives (the same
//     guarantee shape as §4.3's partial second pass).
//   - JOIN: the executor hash-places both tables' rows on the join keys,
//     so matching keys are co-located and per-switch Bloom joins compose
//     by concatenation.
//
// Shards are never copied on the hot paths: contiguous shards are views,
// and hash/range shards are row selections of the parent table that
// JOIN, FILTER and SKYLINE passes read through (see shardInputs).

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"cheetah/internal/obs"
	"cheetah/internal/prune"
	"cheetah/internal/table"
)

// ShardStrategy selects how ExecSharded splits the table across
// switches.
type ShardStrategy uint8

const (
	// ShardAuto hash-shards JOIN inputs on their keys (required for
	// co-location) and splits everything else contiguously — the
	// cheapest correct default.
	ShardAuto ShardStrategy = iota
	// ShardContiguous splits into contiguous row ranges (zero-copy
	// views), like assigning Spark partitions to racks in file order.
	ShardContiguous
	// ShardHash hash-shards on the query's key column (DISTINCT's first
	// column, GROUP BY/HAVING's key, TOP N's order column, FILTER's
	// first predicate column, SKYLINE's first dimension).
	ShardHash
	// ShardRange range-shards on the query's key column (Int64 only).
	ShardRange
)

// String renders the strategy.
func (s ShardStrategy) String() string {
	switch s {
	case ShardContiguous:
		return "contiguous"
	case ShardHash:
		return "hash"
	case ShardRange:
		return "range"
	default:
		return "auto"
	}
}

// ShardedOptions configures the multi-switch scatter/gather path.
type ShardedOptions struct {
	// Shards is the switch count; ≤ 0 selects 1.
	Shards int
	// Workers is the CWorker (partition) count per shard.
	Workers int
	// Seed drives fingerprinting and randomized pruner defaults. All
	// shards share it, so fingerprints agree at the global combine.
	Seed uint64
	// Pruners, when non-nil, supplies one program per shard (len must
	// equal Shards) — the planner's per-switch sizing. Each must be the
	// shipped pruner type the kind's compiled pass drives. Defaults
	// follow the single-switch per-kind configurations, with HAVING's
	// sketch threshold tightened to ⌊threshold/Shards⌋.
	Pruners []prune.Pruner
	// Flows, when non-nil, places shard i on Flows[i], its admitted
	// flow on shard i's shared pipeline (see Flow); a nil entry runs that
	// shard master-side. Requires Pruners: shard i drives Pruners[i],
	// the program installed for Flows[i].
	Flows []Flow
	// Strategy selects the sharding scheme; see ShardAuto.
	Strategy ShardStrategy
	// Failover, when non-nil, is consulted after a shard's switch dies
	// (its Flow's Err reports failure): it returns a fresh program and
	// flow for the shard — typically a new lease on a surviving switch —
	// and the shard's whole stream is redone through them, which is what
	// keeps results §7.2-exact (state a dead switch held in registers is
	// unrecoverable, so the shard is replayed from scratch, never
	// patched). attempt counts from 1.
	// Returning an error, or exhausting maxFailoverAttempts, degrades
	// the shard to master-side execution of its own (reset) program —
	// the servers-are-the-backstop guarantee: switch loss costs
	// performance, never correctness.
	Failover func(shard, attempt int) (prune.Pruner, Flow, error)
	// Backoff, when positive, is the base delay before the first
	// failover attempt; each further attempt on the same shard doubles
	// it (capped exponential backoff — the cap is maxFailoverAttempts
	// itself). Zero retries immediately, which is what tests want.
	Backoff time.Duration
	// Skip enables storage-side block skipping on each shard (skip.go)
	// for kinds with a sound block bound (FILTER, TOP N, JOIN). Shards
	// that are contiguous views of an indexed table inherit its skip
	// index; hash/range shards are row selections (or column copies)
	// without one and simply scan. Results stay bit-identical to
	// ExecDirect.
	Skip bool
	// Trace, when non-nil, collects one span per shard pass (plus a
	// failover span per discarded attempt and a global merge span) into
	// the query's lifecycle trace. Span recording is mutex-guarded, so
	// concurrent shard goroutines may share the trace. Tracing observes
	// only — results, traffic and stats are unchanged.
	Trace *obs.Trace
}

// ShardedRun is the outcome of a scatter/gather execution.
type ShardedRun struct {
	Result *Result
	// Traffic aggregates all switches (MasterProcessed is the global
	// combine's input size).
	Traffic Traffic
	// PerSwitch is each switch's own traffic (MasterProcessed is that
	// shard's contribution to the combine).
	PerSwitch []Traffic
	// Stats sums the shard programs' pruning statistics.
	Stats prune.Stats
	// PrunerName records the per-switch algorithm.
	PrunerName string
	// FailedOver counts switch replacements taken via Options.Failover
	// (shard streams redone on another switch).
	FailedOver int
	// Degraded counts shards that fell back to master-side execution of
	// their program after failover was exhausted or unavailable.
	Degraded int
	// Skipped sums the shards' block-skipping work (zero unless
	// Options.Skip was set and shards carried skip metadata).
	Skipped SkipStats
	// Wall is the execution's total wall time, captured once in
	// ExecSharded around the whole run (see Stopwatch) — it covers every
	// shard pass including failover redos, never a single attempt.
	Wall time.Duration
}

// UnprunedFraction is Forwarded/EntriesSent over the whole fabric.
func (s *ShardedRun) UnprunedFraction() float64 {
	if s.Traffic.EntriesSent == 0 {
		return 0
	}
	return float64(s.Traffic.Forwarded) / float64(s.Traffic.EntriesSent)
}

// shardKeyCol picks the column ShardHash/ShardRange split on.
func shardKeyCol(q *Query) (string, error) {
	switch q.Kind {
	case KindFilter:
		return q.Predicates[0].Col, nil
	case KindDistinct:
		return q.DistinctCols[0], nil
	case KindTopN:
		return q.OrderCol, nil
	case KindGroupByMax, KindGroupBySum, KindHaving:
		return q.KeyCol, nil
	case KindSkyline:
		return q.SkylineCols[0], nil
	default:
		return "", fmt.Errorf("engine: no shard key column for %v", q.Kind)
	}
}

// shardInput is one shard's part of a query input table: the table the
// shard's passes scan and, for a hash or range shard of a kind whose
// passes read through selections, the parent rows the shard holds.
type shardInput struct {
	// t is a contiguous view of the parent (sel nil, base its first
	// row), the parent itself (sel non-nil), or a copy of the columns
	// the query reads (kinds that scan whole tables only).
	t    *table.Table
	sel  []int
	base int
}

// shardInputs splits the query's input tables into k shards according to
// the strategy. For JOIN both sides are hash-placed on their keys; any
// other strategy would break key co-location and is rejected. Hash and
// range placement are row selections of the parent: JOIN, FILTER and
// SKYLINE passes read the parent through them, and the other kinds get
// a copy of just their columns' selected rows.
func shardInputs(q *Query, k int, strategy ShardStrategy) (left, right []shardInput, err error) {
	selected := func(t *table.Table, sel [][]int) []shardInput {
		in := make([]shardInput, len(sel))
		for s := range sel {
			in[s] = shardInput{t: t, sel: sel[s]}
		}
		return in
	}
	if q.Kind == KindJoin {
		if strategy != ShardAuto && strategy != ShardHash {
			return nil, nil, fmt.Errorf("engine: sharded join requires hash sharding on the keys, not %v", strategy)
		}
		if k == 1 {
			// One shard needs no co-location: it scans both tables whole.
			return []shardInput{{t: q.Table}}, []shardInput{{t: q.Right}}, nil
		}
		ls, li := q.Table.Schema(), q.Table.Schema().Index(q.LeftKey)
		rs, ri := q.Right.Schema(), q.Right.Schema().Index(q.RightKey)
		if ls[li].Type != rs[ri].Type {
			return nil, nil, fmt.Errorf("engine: sharded join needs same-typed keys, %q is %s and %q is %s",
				q.LeftKey, ls[li].Type, q.RightKey, rs[ri].Type)
		}
		lsel, err := q.Table.HashShardRows(q.LeftKey, k)
		if err != nil {
			return nil, nil, err
		}
		rsel, err := q.Right.HashShardRows(q.RightKey, k)
		if err != nil {
			return nil, nil, err
		}
		return selected(q.Table, lsel), selected(q.Right, rsel), nil
	}
	var sel [][]int
	switch strategy {
	case ShardAuto, ShardContiguous:
		views, err := q.Table.Partition(k)
		if err != nil {
			return nil, nil, err
		}
		left = make([]shardInput, k)
		for s, v := range views {
			left[s] = shardInput{t: v, base: s * q.Table.NumRows() / k}
		}
		return left, nil, nil
	case ShardHash:
		var col string
		if col, err = shardKeyCol(q); err == nil {
			sel, err = q.Table.HashShardRows(col, k)
		}
	case ShardRange:
		var col string
		if col, err = shardKeyCol(q); err == nil {
			sel, err = q.Table.RangeShardRows(col, k)
		}
	default:
		err = fmt.Errorf("engine: unknown shard strategy %d", uint8(strategy))
	}
	if err != nil {
		return nil, nil, err
	}
	if q.Kind == KindFilter || q.Kind == KindSkyline {
		return selected(q.Table, sel), nil, nil
	}
	cols, err := q.Table.Project(scannedCols(q)...)
	if err != nil {
		return nil, nil, err
	}
	left = make([]shardInput, k)
	for s := range sel {
		if left[s].t, err = cols.Gather(sel[s]); err != nil {
			return nil, nil, err
		}
	}
	return left, nil, nil
}

// scannedCols names, once each, the columns a DISTINCT, TOP N, GROUP BY
// or HAVING pass and its merge read.
func scannedCols(q *Query) []string {
	var names []string
	switch q.Kind {
	case KindDistinct:
		names = q.DistinctCols
	case KindTopN:
		names = []string{q.OrderCol}
	default:
		names = []string{q.KeyCol, q.AggCol}
	}
	return slices.Compact(slices.Sorted(slices.Values(names)))
}

// defaultShardPruner builds shard s's program with the single-switch
// default configuration, tightened per shard where the merge needs it.
func defaultShardPruner(q *Query, shards int, seed uint64) (prune.Pruner, error) {
	switch q.Kind {
	case KindHaving:
		return prune.NewHaving(prune.DefaultHavingConfig(q.Threshold/int64(shards), seed))
	case KindTopN:
		// Each shard's randomized program gets δ/k: a global top-N value
		// lives in exactly one shard, so the union bound over k
		// independent programs keeps the fabric-wide miss probability at
		// the single-switch default δ.
		return prune.NewRandTopN(prune.LegacyRandTopNConfig(q.N, 1e-4/float64(shards), seed))
	default:
		return defaultProgram(q, seed)
	}
}

// shardPruner resolves shard s's program: the caller's when supplied
// (with a kind-specific type check where the executor needs the concrete
// interface), a tightened default otherwise.
func shardPruner(q *Query, opts ShardedOptions, s int) (prune.Pruner, error) {
	if opts.Pruners != nil {
		return opts.Pruners[s], nil
	}
	return defaultShardPruner(q, opts.Shards, opts.Seed)
}

// shardExec bundles one shard's execution context.
type shardExec struct {
	idx int
	// q is the per-shard query, with each input's shardInput.t
	// substituted; sel and rsel are the left and right row selections
	// (nil unless that input is the parent) and base the left view's
	// first parent row. Gather survivors are in q.Table's coordinates
	// and join survivors in q.Table's and q.Right's.
	q         *Query
	sel, rsel []int
	base      int
	pruner    prune.Pruner
	flow      Flow // nil: the program runs master-side or unplaced
	traffic   Traffic
	skipped   SkipStats
	attempts  int  // failover replacements taken
	degraded  bool // fell back to master-side execution
}

// maxFailoverAttempts caps per-shard switch replacements before the
// shard degrades to master-side execution.
const maxFailoverAttempts = 3

// healthErr reports the failure of the shard's switch (a shard without
// a flow never fails).
func (se *shardExec) healthErr() error {
	if se.flow != nil {
		return se.flow.Err()
	}
	return nil
}

// ensureHealthy gives the shard a live switch before an attempt:
// while the current one reports a dead switch, the Failover hook is
// asked for a replacement (capped), and past the cap — or without a
// hook — the shard degrades to running its own program master-side.
// The program is Reset first: its register state is treated as lost
// with the switch, exactly like the real failure it models.
func (se *shardExec) ensureHealthy(opts ShardedOptions) {
	for se.healthErr() != nil {
		if opts.Failover == nil || se.attempts >= maxFailoverAttempts {
			se.pruner.Reset()
			se.flow = nil
			se.degraded = true
			return
		}
		se.attempts++
		if opts.Backoff > 0 {
			time.Sleep(opts.Backoff << (se.attempts - 1))
		}
		p, flow, err := opts.Failover(se.idx, se.attempts)
		if err != nil || p == nil || flow == nil {
			se.pruner.Reset()
			se.flow = nil
			se.degraded = true
			return
		}
		se.pruner, se.flow = p, flow
	}
}

// run executes one shard's whole stream (pass) with §7.2-exact
// failover: a pass that crossed its switch's death is discarded — the
// registers backing its pruning decisions are gone, so partial results
// cannot be trusted — and redone through a replacement switch. pass
// must (re)initialize all per-attempt state it accumulates, including
// reading se.pruner/se.flow at call time; se.traffic is reset here. The
// loop terminates: every retry either replaces the switch (capped) or
// lands on the master-side backstop, which cannot fail.
func (se *shardExec) run(opts ShardedOptions, pass func() error) error {
	for {
		se.ensureHealthy(opts)
		se.traffic = Traffic{}
		se.skipped = SkipStats{}
		tm := opts.Trace.Begin(obs.StageShard, se.idx).Attempt(se.attempts)
		if err := pass(); err != nil {
			return err
		}
		if se.healthErr() == nil {
			note := ""
			if se.degraded {
				note = "degraded: master-side backstop"
			}
			tm.Counts(int64(se.traffic.EntriesSent), int64(se.traffic.Forwarded)).EndNote(note)
			return nil
		}
		// The pass crossed the switch's death: its wall time is recorded
		// as a failover span and the stream is redone (§7.2).
		tm.Restage(obs.StageFailover).EndNote("pass discarded: switch died mid-stream")
	}
}

// forEachShard runs f concurrently for every shard and returns the first
// error. Each shard's pruning is one switch's independent pass.
func forEachShard(n int, f func(s int) error) error {
	if n == 1 {
		return f(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for s := 0; s < n; s++ {
		go func(s int) {
			defer wg.Done()
			errs[s] = f(s)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// newShardExecs places the shards and builds each shard's context.
func newShardExecs(q *Query, opts ShardedOptions) ([]*shardExec, error) {
	left, right, err := shardInputs(q, opts.Shards, opts.Strategy)
	if err != nil {
		return nil, err
	}
	execs := make([]*shardExec, opts.Shards)
	for s := 0; s < opts.Shards; s++ {
		qs := *q
		qs.Table = left[s].t
		se := &shardExec{idx: s, q: &qs, sel: left[s].sel, base: left[s].base}
		if right != nil {
			qs.Right = right[s].t
			se.rsel = right[s].sel
		}
		if se.pruner, err = shardPruner(q, opts, s); err != nil {
			return nil, err
		}
		if opts.Flows != nil {
			se.flow = opts.Flows[s]
		}
		execs[s] = se
	}
	return execs, nil
}

// numRows is the number of left-input rows the shard holds.
func (se *shardExec) numRows() int {
	if se.sel != nil {
		return len(se.sel)
	}
	return se.q.Table.NumRows()
}

// ExecSharded runs the query across a fabric of Shards switches: the
// table is sharded, each shard's workers stream through their own switch
// program concurrently, and the master merges shard partials into the
// exact global result. The result is identical to ExecDirect for every
// query kind.
func ExecSharded(q *Query, opts ShardedOptions) (*ShardedRun, error) {
	clock := StartClock()
	run, err := execSharded(q, opts)
	if run != nil {
		// The engine's single wall capture: one stamp per call, covering
		// every shard pass and failover redo, never reset by a retry.
		run.Wall = clock.Elapsed()
	}
	return run, err
}

func execSharded(q *Query, opts ShardedOptions) (*ShardedRun, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Pruners != nil {
		if len(opts.Pruners) != opts.Shards {
			return nil, fmt.Errorf("engine: got %d pruners for %d shards", len(opts.Pruners), opts.Shards)
		}
		// Unlike ExecCheetah's single nil-means-default Pruner, a partial
		// slice is ambiguous (which shards wanted defaults?) — reject it
		// before a nil program reaches a shard's dataplane.
		for i, p := range opts.Pruners {
			if p == nil {
				return nil, fmt.Errorf("engine: shard %d has a nil pruner (omit Pruners entirely for defaults)", i)
			}
			if err := checkFilterWire(q, p); err != nil {
				return nil, fmt.Errorf("engine: shard %d: %w", i, err)
			}
		}
	}
	if opts.Flows != nil {
		if len(opts.Flows) != opts.Shards {
			return nil, fmt.Errorf("engine: got %d flows for %d shards", len(opts.Flows), opts.Shards)
		}
		if opts.Pruners == nil {
			return nil, fmt.Errorf("engine: shard flows require the matching Pruners (control-plane operations address programs directly)")
		}
	}
	execs, err := newShardExecs(q, opts)
	if err != nil {
		return nil, err
	}
	traceBase := opts.Trace.Elapsed()
	var run *ShardedRun
	switch q.Kind {
	case KindFilter, KindSkyline:
		run, err = shardedGather(q, execs, opts)
	case KindDistinct:
		run, err = shardedDistinct(q, execs, opts)
	case KindTopN:
		run, err = shardedTopN(q, execs, opts)
	case KindGroupByMax:
		run, err = shardedGroupByMax(q, execs, opts)
	case KindGroupBySum:
		run, err = shardedGroupBySum(q, execs, opts)
	case KindHaving:
		run, err = shardedHaving(q, execs, opts)
	case KindJoin:
		run, err = shardedJoin(q, execs, opts)
	default:
		return nil, fmt.Errorf("engine: unknown kind %v", q.Kind)
	}
	if err != nil {
		return nil, err
	}
	run.PrunerName = execs[0].pruner.Name()
	run.PerSwitch = make([]Traffic, len(execs))
	for s, se := range execs {
		run.PerSwitch[s] = se.traffic
		run.Traffic.EntriesSent += se.traffic.EntriesSent
		run.Traffic.Forwarded += se.traffic.Forwarded
		run.Traffic.SecondPassSent += se.traffic.SecondPassSent
		st := se.pruner.Stats()
		run.Stats.Processed += st.Processed
		run.Stats.Pruned += st.Pruned
		run.FailedOver += se.attempts
		if se.degraded {
			run.Degraded++
		}
		run.Skipped.Add(se.skipped)
	}
	if tr := opts.Trace; tr != nil {
		// The global combine is everything after the last shard pass
		// finished: shard-local partials merged into the exact result.
		mergeStart := traceBase
		for _, s := range tr.Spans() {
			if (s.Stage == obs.StageShard || s.Stage == obs.StageFailover) && s.Start >= traceBase {
				if end := s.Start + s.Dur; end > mergeStart {
					mergeStart = end
				}
			}
		}
		now := tr.Elapsed()
		if now < mergeStart {
			mergeStart = now
		}
		tr.Add(obs.Span{Stage: obs.StageMerge, Switch: -1, Start: mergeStart,
			Dur: now - mergeStart, Entries: int64(run.Traffic.MasterProcessed)})
	}
	return run, nil
}

// shardedGather serves FILTER and SKYLINE: per-shard survivor streams,
// mapped to rows of the original table, then one exact master
// completion over their union — no survivor is copied.
func shardedGather(q *Query, execs []*shardExec, opts ShardedOptions) (*ShardedRun, error) {
	survivors := make([][]int, len(execs))
	err := forEachShard(len(execs), func(s int) error {
		se := execs[s]
		return se.run(opts, func() error {
			rows, err := se.gatherPass(opts)
			if err != nil {
				return err
			}
			// A contiguous view's rows are offset into the parent.
			if se.base != 0 {
				for i := range rows {
					rows[i] += se.base
				}
			}
			survivors[s] = rows
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, rows := range survivors {
		total += len(rows)
	}
	all := make([]int, 0, total)
	for _, rows := range survivors {
		all = append(all, rows...)
	}
	res, err := completeOnRows(q, all)
	if err != nil {
		return nil, err
	}
	run := &ShardedRun{Result: res}
	run.Traffic.MasterProcessed = total
	return run, nil
}

// shardedDistinct dedupes per shard on the worker-computed fingerprint,
// then globally across shards.
func shardedDistinct(q *Query, execs []*shardExec, opts ShardedOptions) (*ShardedRun, error) {
	type uniq struct {
		fps  []uint64
		rows []int
	}
	partials := make([]uniq, len(execs))
	err := forEachShard(len(execs), func(s int) error {
		se := execs[s]
		qs := se.q
		cols := make([]int, len(qs.DistinctCols))
		for i, c := range qs.DistinctCols {
			cols[i] = qs.Table.Schema().MustIndex(c)
		}
		return se.run(opts, func() error {
			fps, rows, err := se.distinctPass(opts, cols)
			partials[s] = uniq{fps: fps, rows: rows}
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	// Global combine: first shard to claim a fingerprint keeps it (any
	// representative row of the same value tuple renders identically).
	global := make(map[uint64]struct{}, 1024)
	cols := make([]int, len(q.DistinctCols))
	var rows [][]string
	for s := range partials {
		t := execs[s].q.Table
		for i, c := range q.DistinctCols {
			cols[i] = t.Schema().MustIndex(c)
		}
		for i, fp := range partials[s].fps {
			if _, ok := global[fp]; ok {
				continue
			}
			global[fp] = struct{}{}
			row := make([]string, len(cols))
			for k, c := range cols {
				row[k] = cellString(t, c, partials[s].rows[i])
			}
			rows = append(rows, row)
		}
	}
	run := &ShardedRun{Result: sortedResult(append([]string(nil), q.DistinctCols...), rows)}
	for _, se := range execs {
		run.Traffic.MasterProcessed += se.traffic.Forwarded
	}
	return run, nil
}

// shardedTopN keeps an N-heap per shard (the shard-local threshold),
// then re-checks the union in a global N-heap at the master.
func shardedTopN(q *Query, execs []*shardExec, opts ShardedOptions) (*ShardedRun, error) {
	heaps := make([]int64Heap, len(execs))
	err := forEachShard(len(execs), func(s int) error {
		se := execs[s]
		col := se.q.Table.Schema().MustIndex(se.q.OrderCol)
		return se.run(opts, func() error {
			h, err := se.topNPass(opts, col)
			heaps[s] = h
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	forwarded := 0
	for _, h := range heaps {
		forwarded += len(h)
	}
	g := make(int64Heap, 0, min(q.N, forwarded))
	for _, h := range heaps {
		for _, v := range h {
			if len(g) < q.N {
				g.push(v)
			} else if v > g[0] {
				g[0] = v
				g.fixRoot()
			}
		}
	}
	cells := make([]string, len(g))
	for i, v := range g {
		cells[i] = strconv.FormatInt(v, 10)
	}
	radixSortStrings(cells)
	run := &ShardedRun{Result: &Result{Columns: []string{q.OrderCol}, Rows: singleCellRows(cells)}}
	run.Traffic.MasterProcessed = forwarded
	return run, nil
}

// shardedGroupByMax merges per-shard fingerprint-keyed maxima.
func shardedGroupByMax(q *Query, execs []*shardExec, opts ShardedOptions) (*ShardedRun, error) {
	type partial struct {
		fps  []uint64
		maxs []int64
		reps []int
	}
	partials := make([]partial, len(execs))
	err := forEachShard(len(execs), func(s int) error {
		se := execs[s]
		qs := se.q
		kc := qs.Table.Schema().MustIndex(qs.KeyCol)
		vc := qs.Table.Schema().MustIndex(qs.AggCol)
		return se.run(opts, func() error {
			fps, maxs, reps, err := se.groupByMaxPass(opts, kc, vc)
			partials[s] = partial{fps: fps, maxs: maxs, reps: reps}
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	type entry struct {
		max   int64
		shard int
		rep   int
	}
	global := make(map[uint64]entry, 1024)
	var order []uint64
	for s := range partials {
		p := &partials[s]
		for i, fp := range p.fps {
			if e, ok := global[fp]; ok {
				if p.maxs[i] > e.max {
					e.max = p.maxs[i]
					global[fp] = e
				}
			} else {
				global[fp] = entry{max: p.maxs[i], shard: s, rep: p.reps[i]}
				order = append(order, fp)
			}
		}
	}
	rows := make([][]string, 0, len(order))
	for _, fp := range order {
		e := global[fp]
		t := execs[e.shard].q.Table
		kc := t.Schema().MustIndex(q.KeyCol)
		rows = append(rows, []string{cellString(t, kc, e.rep), strconv.FormatInt(e.max, 10)})
	}
	run := &ShardedRun{Result: sortedResult([]string{q.KeyCol, "max(" + q.AggCol + ")"}, rows)}
	for _, se := range execs {
		run.Traffic.MasterProcessed += se.traffic.Forwarded
	}
	return run, nil
}

// shardedGroupBySum adds per-shard fingerprint-keyed partial sums
// (forwarded evictions plus the end-of-stream drains).
func shardedGroupBySum(q *Query, execs []*shardExec, opts ShardedOptions) (*ShardedRun, error) {
	type partial struct {
		sums    map[uint64]int64
		fpToKey map[uint64]string
	}
	partials := make([]partial, len(execs))
	err := forEachShard(len(execs), func(s int) error {
		se := execs[s]
		qs := se.q
		kc := qs.Table.Schema().MustIndex(qs.KeyCol)
		vc := qs.Table.Schema().MustIndex(qs.AggCol)
		return se.run(opts, func() error {
			sums, fpToKey, err := se.groupBySumPass(opts, kc, vc)
			partials[s] = partial{sums: sums, fpToKey: fpToKey}
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	sums := make(map[uint64]int64, 1024)
	fpToKey := make(map[uint64]string, 1024)
	for s := range partials {
		for fp, v := range partials[s].sums {
			sums[fp] += v
		}
		for fp, k := range partials[s].fpToKey {
			if _, ok := fpToKey[fp]; !ok {
				fpToKey[fp] = k
			}
		}
	}
	rows := make([][]string, 0, len(sums))
	for fp, v := range sums {
		rows = append(rows, []string{fpToKey[fp], strconv.FormatInt(v, 10)})
	}
	run := &ShardedRun{Result: sortedResult([]string{q.KeyCol, "sum(" + q.AggCol + ")"}, rows)}
	run.Traffic.MasterProcessed = len(sums)
	return run, nil
}

// shardedHaving runs per-shard sketches at the tightened ⌊T/k⌋
// threshold, unions the candidates into one slot table, and re-streams
// every shard against it from the shard's pass-1 fingerprints; the
// shards' slot sums add by slot index.
func shardedHaving(q *Query, execs []*shardExec, opts ShardedOptions) (*ShardedRun, error) {
	fps := make([][]uint64, len(execs))
	cands := make([]*candTable, len(execs))
	err := forEachShard(len(execs), func(s int) error {
		se := execs[s]
		qs := se.q
		kc := qs.Table.Schema().MustIndex(qs.KeyCol)
		vc := qs.Table.Schema().MustIndex(qs.AggCol)
		return se.run(opts, func() error {
			var err error
			fps[s], cands[s], err = se.havingCandidates(opts, kc, vc)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	// Barrier: the second pass needs the union of every switch's
	// candidates — a key's sum may cross the global threshold only in
	// aggregate.
	cand := newCandTable(q.Table.ColumnType(q.Table.Schema().MustIndex(q.KeyCol)) == table.String)
	for _, c := range cands {
		cand.union(c)
	}
	parts := make([]havingSums, len(execs))
	err = forEachShard(len(execs), func(s int) error {
		se := execs[s]
		qs := se.q
		kc := qs.Table.Schema().MustIndex(qs.KeyCol)
		vc := qs.Table.Schema().MustIndex(qs.AggCol)
		// The exact pass is pruner-free, so no switch takes part.
		parts[s] = fusedHavingPass2(accessorFor(qs.Table, kc), qs.Table.Int64Col(vc), fps[s], cand)
		se.traffic.EntriesSent += parts[s].resent
		se.traffic.SecondPassSent += parts[s].resent
		se.traffic.MasterProcessed = se.traffic.SecondPassSent
		return nil
	})
	if err != nil {
		return nil, err
	}
	sums := havingSums{slots: make([]int64, cand.size())}
	for _, p := range parts {
		sums.merge(p)
	}
	run := &ShardedRun{Result: sums.result(q.KeyCol, cand, q.Threshold)}
	for _, se := range execs {
		run.Traffic.MasterProcessed += se.traffic.SecondPassSent
	}
	return run, nil
}

// shardedJoin runs one Bloom join per switch over the co-located shard
// pair and concatenates the per-key summaries (hash co-location means no
// key spans switches), sorting once at the end.
func shardedJoin(q *Query, execs []*shardExec, opts ShardedOptions) (*ShardedRun, error) {
	pairs := make([][][]string, len(execs))
	lc := q.Table.Schema().MustIndex(q.LeftKey)
	rc := q.Right.Schema().MustIndex(q.RightKey)
	err := forEachShard(len(execs), func(s int) error {
		se := execs[s]
		// The build and probe passes share the program's Bloom state, so
		// the retry unit is the whole build→probe sequence: a switch that
		// dies anywhere inside it invalidates the filter, never just one
		// pass.
		return se.run(opts, func() error {
			j, err := shardProgram[*prune.Join](se)
			if err != nil {
				return err
			}
			if j.Phase() != prune.PhaseBuild {
				return fmt.Errorf("engine: sharded join needs programs in their build phase")
			}
			l, r := newJoinInput(se.q.Table, lc, se.sel), newJoinInput(se.q.Right, rc, se.rsel)
			if opts.Skip && se.rsel == nil {
				// Probe-side skipping on the single whole-table shard: exact
				// for the same reason as the single-switch path (skip.go).
				r.spans, se.skipped = joinRightSpans(se.q.Table, lc, se.q.Right, rc)
			}
			var left, right []int
			left, right, se.traffic = fusedJoinCore(j, opts.Seed, se.flow, l, r)
			se.traffic.MasterProcessed = len(left) + len(right)
			pairs[s] = joinPairs(se.q, left, right)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range pairs {
		total += len(p)
	}
	rows := make([][]string, 0, total)
	for _, p := range pairs {
		rows = append(rows, p...)
	}
	run := &ShardedRun{Result: sortedResult(joinColumns(q), rows)}
	for _, se := range execs {
		run.Traffic.MasterProcessed += se.traffic.MasterProcessed
	}
	return run, nil
}
