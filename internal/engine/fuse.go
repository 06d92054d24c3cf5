package engine

// This file is the fused query compiler — the execution layer of
// ExecCheetah, ExecSharded and streaming deltas. Each query kind
// compiles to one monomorphic loop: the loop reads table columns
// directly, inlines the pruner's core state transition through the
// concrete type's Fused* entry points (prune/fused.go), and consumes
// survivors in place — no wire buffers, no Decision slice, no per-chunk
// dispatch.
//
// Equivalence contract. For every kind the fused loop visits entries in
// the exact arrival order of the scalar path (the round-robin worker
// interleave — see rrStarts), drives the same state transitions, and
// deposits the same Stats via AddStats, so Results, Traffic and Stats
// are bit-identical to the scalar oracle — with two deliberate
// relaxations, both invisible in Results:
//
//   - Stateless or order-insensitive passes (FILTER's predicate sweeps,
//     JOIN's Bloom build/probe, HAVING's exact second pass) run in plain
//     row order: their totals and final state cannot depend on order.
//   - Randomized TOP N draws its row choices from a counter-indexed RNG
//     stream (prune.FusedRandState) instead of the scalar path's serial
//     chain, so its prune decisions — and hence Traffic/Stats — differ
//     from the scalar oracle, while final Results stay bit-identical
//     (the master's heap completion is exact on whatever survives).
//
// Flows. On a shared pipeline the loops still drive the flow's installed
// program directly, and mark a chunk boundary on the flow (Flow.Chunk)
// before every chunkEntries entries of a pass, which is where an armed
// fault injector may kill the switch. A pass that crossed a death keeps
// running on the (possibly scrubbed) program; its caller discards it
// once Flow.Err reports the failure.
//
// Fallback. A pruner type the compiler does not know, or a JOIN program
// already past its build phase, runs on the scalar per-entry path
// (cheetah.go) instead.

import (
	"strconv"
	"sync"

	"cheetah/internal/cache"
	"cheetah/internal/hashutil"
	"cheetah/internal/prune"
	"cheetah/internal/sketch"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
)

// chunkEntries is the number of entries a pass streams between two
// chunk boundaries on its flow (Flow.Chunk). It is a variable only so
// tests can force multi-chunk streams on small tables.
var chunkEntries = 1 << 18

// chunkHook marks the chunk boundaries of one pass on its flow: step is
// called once per unit of the pass's loop (an entry, a sweep, or a
// worker-interleave cycle) and calls Chunk before every chunkEntries
// entries' worth of units, starting with the first. A nil flow never
// fires.
type chunkHook struct {
	flow Flow
	per  int // units per chunk
	left int // units left in the current chunk
}

// newChunkHook returns the hook of a pass whose loop steps unit entries
// at a time.
func newChunkHook(flow Flow, unit int) chunkHook {
	return chunkHook{flow: flow, per: max(1, chunkEntries/max(1, unit))}
}

func (c *chunkHook) step() {
	if c.left == 0 {
		c.left = c.per
		if c.flow != nil {
			c.flow.Chunk()
		}
	}
	c.left--
}

// compiledProgram resolves the execution's program as P, the concrete
// type the kind's fused loop drives: the caller's program, or the
// kind's default. ok=false means the caller's program is of another
// type, which the scalar path runs instead.
func compiledProgram[P prune.Pruner](q *Query, opts CheetahOptions) (p P, ok bool, err error) {
	pr := opts.Pruner
	if pr == nil {
		if pr, err = defaultProgram(q, opts.Seed); err != nil {
			return p, true, err
		}
	}
	p, ok = pr.(P)
	return p, ok, nil
}

// colAcc is a hoisted typed accessor for one column.
type colAcc struct {
	isStr bool
	ints  []int64
	strs  []string
}

func accessorFor(t *table.Table, c int) colAcc {
	if t.ColumnType(c) == table.String {
		return colAcc{isStr: true, strs: t.StringCol(c)}
	}
	return colAcc{ints: t.Int64Col(c)}
}

// cell renders row r's value as a result cell, as cellString does.
func (a *colAcc) cell(r int) string {
	if a.isStr {
		return a.strs[r]
	}
	return strconv.FormatInt(a.ints[r], 10)
}

// growProjected makes room in rows for extra more survivors. A regrowth
// is sized from the rate observed so far — len(rows)+extra survivors
// out of seen entries, with remaining entries still to come — plus
// headroom, instead of append's doubling.
func growProjected(rows []int, extra, seen, remaining int) []int {
	need := len(rows) + extra
	if need <= cap(rows) {
		return rows
	}
	projected := need + int(float64(remaining)*float64(need)/float64(seen))
	projected += projected / 8 // headroom against rate drift
	grown := make([]int, len(rows), projected)
	copy(grown, rows)
	return grown
}

// rrStarts returns the worker partition boundaries of rows
// [lo, lo+n): partition w is [starts[w], starts[w+1]), identical to
// table.Partition / interleave. The fused loops replay the
// round-robin arrival order with
//
//	for k, done := 0, 0; done < n; k++ {
//	    for w := 0; w < workers; w++ {
//	        r := starts[w] + k
//	        if r >= starts[w+1] { continue }
//	        done++
//	        ... entry r ...
//	    }
//	}
//
// — cycle k visits every still-live partition in worker order, which is
// exactly interleave's schedule.
func rrStarts(lo, n, workers int) []int {
	starts := make([]int, workers+1)
	for i := 0; i <= workers; i++ {
		starts[i] = lo + i*n/workers
	}
	return starts
}

// rowFP is fingerprintRow compiled to a direct (devirtualized) per-row
// call, with the dominant single-column cases hoisted to a raw column
// slice and the seed premixed for int64 cells; it must stay
// bit-identical to fingerprintRow.
type rowFP struct {
	strs  []string
	ints  []int64
	accs  []colAcc
	seed  uint64
	mixed uint64 // hashutil.Premix(seed)
	h0    uint64
}

func newRowFP(t *table.Table, cols []int, seed uint64) rowFP {
	f := rowFP{seed: seed, mixed: hashutil.Premix(seed), h0: seed ^ 0xfeedface}
	if len(cols) == 1 {
		if t.ColumnType(cols[0]) == table.String {
			f.strs = t.StringCol(cols[0])
		} else {
			f.ints = t.Int64Col(cols[0])
		}
		return f
	}
	f.accs = make([]colAcc, len(cols))
	for i, c := range cols {
		f.accs[i] = accessorFor(t, c)
	}
	return f
}

func (f *rowFP) fp(r int) uint64 {
	if f.strs != nil {
		return hashutil.Mix64(f.h0 ^ hashutil.HashString64(f.strs[r], f.seed))
	}
	if f.ints != nil {
		return hashutil.Mix64(f.h0 ^ hashutil.HashPremixed(uint64(f.ints[r]), f.mixed))
	}
	return f.multi(r)
}

// multi fingerprints row r over the hoisted accessors of a multi-column
// key.
func (f *rowFP) multi(r int) uint64 {
	h := f.h0
	for i := range f.accs {
		var cell uint64
		if f.accs[i].isStr {
			cell = hashutil.HashString64(f.accs[i].strs[r], f.seed)
		} else {
			cell = hashutil.HashPremixed(uint64(f.accs[i].ints[r]), f.mixed)
		}
		h = hashutil.Mix64(h ^ cell)
	}
	return h
}

// fill writes the fingerprints of rows into fps. It visits the
// entries stride apart as separate sweeps — in a worker-interleaved
// chunk, sweep w walks partition w's rows in order, which keeps the
// column reads sequential.
func (f *rowFP) fill(fps []uint64, rows []int, stride int) {
	for w := 0; w < stride; w++ {
		switch {
		case f.strs != nil:
			for i := w; i < len(rows); i += stride {
				fps[i] = hashutil.Mix64(f.h0 ^ hashutil.HashString64(f.strs[rows[i]], f.seed))
			}
		case f.ints != nil:
			for i := w; i < len(rows); i += stride {
				fps[i] = hashutil.Mix64(f.h0 ^ hashutil.HashPremixed(uint64(f.ints[rows[i]]), f.mixed))
			}
		default:
			for i := w; i < len(rows); i += stride {
				fps[i] = f.multi(rows[i])
			}
		}
	}
}

// fpChunk caps the entries a fingerprint scan hashes ahead of its prune
// loop. Hashing a chunk in one tight loop keeps neighbouring entries'
// hash chains in flight together; interleaved with the prune loop's
// data-dependent branches and map probes they would run one at a time.
const fpChunk = 1024

// fpScan walks rows [0, n) of a table in worker-interleave order, a
// chunk at a time: each next() hands out the chunk's rows and their key
// fingerprints, and marks a chunk boundary on the pass's flow.
type fpScan struct {
	starts    []int
	workers   int
	k, cycles int // next cycle, cycle count (the largest partition)
	per       int // cycles per chunk
	fpr       rowFP
	hook      chunkHook
	rows      []int
	fps       []uint64
}

func newFPScan(t *table.Table, cols []int, seed uint64, workers int, flow Flow) *fpScan {
	n := t.NumRows()
	if workers <= 0 {
		workers = 1
	}
	starts := rrStarts(0, n, workers)
	cycles := 0
	for w := 0; w < workers; w++ {
		cycles = max(cycles, starts[w+1]-starts[w])
	}
	size := min(fpChunk, chunkEntries)
	per := max(1, size/workers)
	return &fpScan{
		starts: starts, workers: workers, cycles: cycles, per: per,
		fpr:  newRowFP(t, cols, seed),
		hook: newChunkHook(flow, per*workers),
		rows: make([]int, 0, per*workers),
		fps:  make([]uint64, per*workers),
	}
}

// next loads the next chunk into s.rows and s.fps, reporting false once
// every row was handed out.
func (s *fpScan) next() bool {
	if s.k >= s.cycles {
		return false
	}
	s.hook.step()
	rows := s.rows[:0]
	for end := min(s.k+s.per, s.cycles); s.k < end; s.k++ {
		for w := 0; w < s.workers; w++ {
			if r := s.starts[w] + s.k; r < s.starts[w+1] {
				rows = append(rows, r)
			}
		}
	}
	s.rows, s.fps = rows, s.fps[:len(rows)]
	s.fpr.fill(s.fps, rows, s.workers)
	return true
}

// --- FILTER ------------------------------------------------------------

// fusedFilterChunk sizes the predicate bit-vector sweeps so the vector
// stays cache-resident across the per-predicate passes.
const fusedFilterChunk = 8192

// filterBitsPool recycles the per-chunk predicate bit-vectors of the
// fused FILTER scan.
var filterBitsPool = sync.Pool{New: func() any {
	s := make([]uint32, fusedFilterChunk)
	return &s
}}

// predPasses is Predicate.Eval's comparison with the value hoisted —
// used to precompute, for a LIKE wire column, which of its two values
// {0, 1} passes a non-precomputed predicate over it (a degenerate shape
// a caller-built pruner can request; kept for exact parity).
func predPasses(v int64, op prune.CmpOp, c int64) bool {
	switch op {
	case prune.OpGT:
		return v > c
	case prune.OpGE:
		return v >= c
	case prune.OpLT:
		return v < c
	case prune.OpLE:
		return v <= c
	case prune.OpEQ:
		return v == c
	case prune.OpNE:
		return v != c
	default:
		return false
	}
}

// evalIntPred sweeps one raw int64 wire column, OR-ing bit into the
// bit-vector of every passing row — the per-predicate stage of
// Filter.Process, swept over a raw table column.
func evalIntPred(bits []uint32, col []int64, pr *prune.Predicate, bit uint32) {
	if pr.Precomputed {
		for j, v := range col {
			if v != 0 {
				bits[j] |= bit
			}
		}
		return
	}
	c := pr.Const
	switch pr.Op {
	case prune.OpGT:
		for j, v := range col {
			if v > c {
				bits[j] |= bit
			}
		}
	case prune.OpGE:
		for j, v := range col {
			if v >= c {
				bits[j] |= bit
			}
		}
	case prune.OpLT:
		for j, v := range col {
			if v < c {
				bits[j] |= bit
			}
		}
	case prune.OpLE:
		for j, v := range col {
			if v <= c {
				bits[j] |= bit
			}
		}
	case prune.OpEQ:
		for j, v := range col {
			if v == c {
				bits[j] |= bit
			}
		}
	case prune.OpNE:
		for j, v := range col {
			if v != c {
				bits[j] |= bit
			}
		}
	}
}

// evalLikePred sweeps one LIKE wire column: the wire value is the 0/1
// match bit, so a non-precomputed predicate over it reduces to two
// precomputed booleans.
func evalLikePred(bits []uint32, col []string, like string, pr *prune.Predicate, bit uint32) {
	hitSets, missSets := true, false
	if !pr.Precomputed {
		hitSets = predPasses(1, pr.Op, pr.Const)
		missSets = predPasses(0, pr.Op, pr.Const)
	}
	for j := range col {
		if MatchLike(col[j], like) {
			if hitSets {
				bits[j] |= bit
			}
		} else if missSets {
			bits[j] |= bit
		}
	}
}

// fusedFilterScan runs the whole FILTER dataplane over spans of t as
// chunked column sweeps: each filter predicate ORs its bit into a pooled
// bit-vector straight from its wire column (raw int64, or LIKE evaluated
// on the fly), then one truth-table sweep counts — and, when rows is
// non-nil, collects — the survivors. Filtering is stateless, so plain
// row order yields the same totals as the worker interleave, and the
// result assembly sorts. A non-nil sel scans that row selection of t
// (spans then index sel): each chunk's wire values are gathered through
// it, and survivors are reported as t's rows. f's predicates must read
// only the query's wire values (checkFilterWire).
func fusedFilterScan(t *table.Table, sel []int, preds []FilterPred, cols []int, f *prune.Filter,
	spans []span, flow Flow, rows *[]int) (sent, fwd int) {
	sPreds, tt := f.FusedSpec()
	step := min(fusedFilterChunk, chunkEntries)
	hook := newChunkHook(flow, step)
	type wire struct {
		ints []int64
		strs []string
		like string
		// Chunk gathers of a row selection.
		selInts []int64
		selStrs []string
	}
	wires := make([]wire, len(preds))
	for i := range preds {
		if preds[i].SwitchSupported() {
			wires[i] = wire{ints: t.Int64Col(cols[i])}
			if sel != nil {
				wires[i].selInts = make([]int64, 0, fusedFilterChunk)
			}
		} else {
			wires[i] = wire{strs: t.StringCol(cols[i]), like: preds[i].Like}
			if sel != nil {
				wires[i].selStrs = make([]string, 0, fusedFilterChunk)
			}
		}
	}
	remaining := 0
	for _, sp := range spans {
		remaining += sp.hi - sp.lo
	}
	bp := filterBitsPool.Get().(*[]uint32)
	bits := *bp
	for _, sp := range spans {
		for lo := sp.lo; lo < sp.hi; lo += step {
			hook.step()
			hi := min(lo+step, sp.hi)
			m := hi - lo
			if cap(bits) < m {
				bits = make([]uint32, m)
			}
			bits = bits[:m]
			clear(bits)
			for i := range sPreds {
				pr := &sPreds[i]
				w := &wires[pr.ValIdx]
				bit := uint32(1) << uint(i)
				switch {
				case w.ints != nil && sel == nil:
					evalIntPred(bits, w.ints[lo:hi], pr, bit)
				case w.ints != nil:
					w.selInts = w.selInts[:0]
					for _, r := range sel[lo:hi] {
						w.selInts = append(w.selInts, w.ints[r])
					}
					evalIntPred(bits, w.selInts, pr, bit)
				case sel == nil:
					evalLikePred(bits, w.strs[lo:hi], w.like, pr, bit)
				default:
					w.selStrs = w.selStrs[:0]
					for _, r := range sel[lo:hi] {
						w.selStrs = append(w.selStrs, w.strs[r])
					}
					evalLikePred(bits, w.selStrs, w.like, pr, bit)
				}
			}
			sent += m
			remaining -= m
			passed := 0
			for _, bv := range bits {
				if tt.Lookup(bv) {
					passed++
				}
			}
			fwd += passed
			if rows == nil {
				continue
			}
			*rows = growProjected(*rows, passed, sent, remaining)
			for j, bv := range bits {
				if tt.Lookup(bv) {
					if sel != nil {
						*rows = append(*rows, sel[lo+j])
					} else {
						*rows = append(*rows, lo+j)
					}
				}
			}
		}
	}
	*bp = bits
	filterBitsPool.Put(bp)
	return sent, fwd
}

func fusedFilter(q *Query, opts CheetahOptions) (*CheetahRun, bool, error) {
	cols := make([]int, len(q.Predicates))
	for i, p := range q.Predicates {
		cols[i] = q.Table.Schema().MustIndex(p.Col)
	}
	trusted := opts.Pruner == nil
	f, ok, err := compiledProgram[*prune.Filter](q, opts)
	if !ok || err != nil {
		return nil, ok, err
	}
	run := &CheetahRun{PrunerName: f.Name()}
	spans := fullSpans(q.Table)
	if opts.Skip {
		spans, run.Skipped = filterSpans(q, q.Table, cols)
	}
	var survivors []int
	rowsPtr := &survivors
	if trusted && q.CountOnly {
		rowsPtr = nil
	}
	sent, fwd := fusedFilterScan(q.Table, nil, q.Predicates, cols, f, spans, opts.Flow, rowsPtr)
	f.AddStats(uint64(sent), uint64(sent-fwd))
	run.Traffic.EntriesSent = sent
	run.Traffic.Forwarded = fwd
	run.Stats = f.Stats()
	if trusted && q.CountOnly {
		run.Result = &Result{Columns: []string{"count"}, Rows: [][]string{{strconv.Itoa(fwd)}}}
		run.Traffic.MasterProcessed = fwd
		return run, true, nil
	}
	if !trusted {
		// A caller-supplied pruner may forward false positives; keep the
		// exact master completion.
		res, err := completeOnRows(q, survivors)
		if err != nil {
			return nil, true, err
		}
		run.Result = res
		run.Traffic.MasterProcessed = len(survivors)
		return run, true, nil
	}
	t := q.Table
	names := make([]string, t.NumCols())
	for i, d := range t.Schema() {
		names[i] = d.Name
	}
	rows := make([][]string, len(survivors))
	backing := make([]string, len(survivors)*t.NumCols())
	for i, r := range survivors {
		row := backing[i*t.NumCols() : (i+1)*t.NumCols() : (i+1)*t.NumCols()]
		for c := range row {
			row[c] = cellString(t, c, r)
		}
		rows[i] = row
	}
	run.Result = sortedResult(names, rows)
	run.Traffic.MasterProcessed = len(survivors)
	return run, true, nil
}

// --- DISTINCT ----------------------------------------------------------

// distinctScratch is the pooled master-side dedup state of one DISTINCT
// run.
type distinctScratch struct {
	seen       map[uint64]struct{}
	uniqueRows []int
}

var distinctScratchPool = sync.Pool{New: func() any {
	return &distinctScratch{seen: make(map[uint64]struct{}, 4096)}
}}

// fusedDistinctScan streams every row's key fingerprint through the
// cache matrix in worker-interleave order and dedupes survivors on the
// fly: first-seen fingerprints land in seen/rows (the master's unique
// list), later duplicates only count as forwarded.
func fusedDistinctScan(t *table.Table, cols []int, seed uint64, m *cache.Matrix, workers int, flow Flow,
	seen map[uint64]struct{}, rows *[]int) (sent, fwd int) {
	s := newFPScan(t, cols, seed, workers, flow)
	for s.next() {
		for i, fp := range s.fps {
			if m.Insert(fp) {
				continue
			}
			fwd++
			if _, dup := seen[fp]; !dup {
				seen[fp] = struct{}{}
				*rows = append(*rows, s.rows[i])
			}
		}
	}
	return t.NumRows(), fwd
}

func fusedDistinct(q *Query, opts CheetahOptions) (*CheetahRun, bool, error) {
	d, ok, err := compiledProgram[*prune.Distinct](q, opts)
	if !ok || err != nil {
		return nil, ok, err
	}
	cols := make([]int, len(q.DistinctCols))
	for i, c := range q.DistinctCols {
		cols[i] = q.Table.Schema().MustIndex(c)
	}
	run := &CheetahRun{PrunerName: d.Name()}
	ds := distinctScratchPool.Get().(*distinctScratch)
	clear(ds.seen)
	ds.uniqueRows = ds.uniqueRows[:0]
	sent, fwd := fusedDistinctScan(q.Table, cols, opts.Seed, d.FusedMatrix(), opts.Workers, opts.Flow,
		ds.seen, &ds.uniqueRows)
	d.AddStats(uint64(sent), uint64(sent-fwd))
	run.Traffic.EntriesSent = sent
	run.Traffic.Forwarded = fwd
	var res *Result
	if len(cols) == 1 {
		cells := make([]string, len(ds.uniqueRows))
		for i, r := range ds.uniqueRows {
			cells[i] = cellString(q.Table, cols[0], r)
		}
		radixSortStrings(cells)
		res = &Result{Columns: append([]string(nil), q.DistinctCols...), Rows: singleCellRows(cells)}
	} else {
		rows := make([][]string, len(ds.uniqueRows))
		backing := make([]string, len(ds.uniqueRows)*len(cols))
		for i, r := range ds.uniqueRows {
			row := backing[i*len(cols) : (i+1)*len(cols) : (i+1)*len(cols)]
			for k, c := range cols {
				row[k] = cellString(q.Table, c, r)
			}
			rows[i] = row
		}
		res = sortedResult(append([]string(nil), q.DistinctCols...), rows)
	}
	distinctScratchPool.Put(ds)
	run.Result = res
	run.Traffic.MasterProcessed = fwd
	run.Stats = d.Stats()
	return run, true, nil
}

// --- TOP N -------------------------------------------------------------

// fusedTopNRandSpan streams rows [lo, hi) through the randomized TOP N
// matrix, feeding survivors straight into the master's N-heap. The row
// choice comes from the counter-indexed RNG stream
// (prune.FusedRandState): the per-entry draw is Mix64 of a running
// counter — no loop-carried dependency — and the prune test is the
// per-row minimum-cache test (cache.RollingMin.Mins) with the
// steady-state splice specialized to InsertFull. Two sanctioned
// liberties beyond the scalar path's: the scan runs in plain row order rather than
// worker-interleave (the row draw is value-independent, so any
// deterministic entry↔counter pairing gives the same uniform-row
// guarantee — this pruner's decisions already deviate from the scalar
// oracle by design), and the worker count does not influence the
// stream at all, so fused TOP N traffic is reproducible across worker
// counts too.
func fusedTopNRandSpan(ints []int64, lo, hi int, p *prune.RandTopN,
	h *int64Heap, topN int) (sent, fwd int) {
	n := hi - lo
	if n == 0 {
		return 0, 0
	}
	m, d, base, pos0 := p.FusedRandState(n)
	mins := m.Mins()
	g := uint64(prune.FusedRandGolden)
	acc := base + pos0*g
	vs := ints[lo:hi]
	// Hash a quad of counters ahead and touch their min-cache lines, then
	// settle the four verdicts unrolled and exactly in entry order: the
	// draws have no loop-carried dependency, so the four hashes overlap,
	// the summed loads act as software prefetches hiding the random-access
	// latency a one-at-a-time loop pays serially, and the unroll keeps the
	// row indices in registers. Decisions are identical to the sequential
	// loop — each verdict re-reads mins (now resident) after any earlier
	// splice in the quad.
	i := 0
	for ; i+4 <= len(vs); i += 4 {
		z0 := hashutil.Mix64(acc)
		z1 := hashutil.Mix64(acc + g)
		z2 := hashutil.Mix64(acc + 2*g)
		z3 := hashutil.Mix64(acc + 3*g)
		acc += 4 * g
		r0 := int(hashutil.ReduceFull(z0, d))
		r1 := int(hashutil.ReduceFull(z1, d))
		r2 := int(hashutil.ReduceFull(z2, d))
		r3 := int(hashutil.ReduceFull(z3, d))
		_ = mins[r0] + mins[r1] + mins[r2] + mins[r3]
		v0, v1, v2, v3 := vs[i], vs[i+1], vs[i+2], vs[i+3]
		// Forwarded entries splice into their (possibly still filling)
		// row — the sentinel-slot layout makes InsertFull Offer minus the
		// verdict the compact-array test already settled.
		if mn := mins[r0]; v0 > mn || mn == cache.MinSentinel {
			m.InsertFull(r0, v0)
			fwd++
			h.offer(v0, topN)
		}
		if mn := mins[r1]; v1 > mn || mn == cache.MinSentinel {
			m.InsertFull(r1, v1)
			fwd++
			h.offer(v1, topN)
		}
		if mn := mins[r2]; v2 > mn || mn == cache.MinSentinel {
			m.InsertFull(r2, v2)
			fwd++
			h.offer(v2, topN)
		}
		if mn := mins[r3]; v3 > mn || mn == cache.MinSentinel {
			m.InsertFull(r3, v3)
			fwd++
			h.offer(v3, topN)
		}
	}
	for ; i < len(vs); i++ {
		v := vs[i]
		row := int(hashutil.ReduceFull(hashutil.Mix64(acc), d))
		acc += g
		if mn := mins[row]; v > mn || mn == cache.MinSentinel {
			m.InsertFull(row, v)
			fwd++
			h.offer(v, topN)
		}
	}
	return n, fwd
}

// fusedTopNDetSpan is fusedTopNRandSpan for the deterministic threshold
// pruner: the per-entry transition is DetTopN.FusedOffer.
func fusedTopNDetSpan(ints []int64, lo, hi, workers int, flow Flow, p *prune.DetTopN,
	h *int64Heap, topN int) (sent, fwd int) {
	n := hi - lo
	if n == 0 {
		return 0, 0
	}
	if workers <= 0 {
		workers = 1
	}
	starts := rrStarts(lo, n, workers)
	hook := newChunkHook(flow, workers)
	for k, done := 0, 0; done < n; k++ {
		hook.step()
		for w := 0; w < workers; w++ {
			r := starts[w] + k
			if r >= starts[w+1] {
				continue
			}
			done++
			v := ints[r]
			if p.FusedOffer(v) {
				continue
			}
			fwd++
			if len(*h) < topN {
				h.push(v)
			} else if v > (*h)[0] {
				(*h)[0] = v
				(*h).fixRoot()
			}
		}
	}
	return n, fwd
}

// fusedTopNScan streams t's order column — only its unskippable spans
// when skip is set and t carries a skip index — through rnd (or, when
// rnd is nil, det) into the N-heap h, and deposits the pass's stats.
func fusedTopNScan(t *table.Table, col, topN, workers int, rnd *prune.RandTopN, det *prune.DetTopN,
	flow Flow, skip bool, h *int64Heap, skipped *SkipStats) (sent, fwd int) {
	ints := t.Int64Col(col)
	scan := func(lo, hi int) {
		if rnd == nil {
			s, f := fusedTopNDetSpan(ints, lo, hi, workers, flow, det, h, topN)
			sent += s
			fwd += f
			return
		}
		// The counter stream is contiguous across calls, so cutting the
		// span into chunks changes no decision.
		hook := newChunkHook(flow, chunkEntries)
		for a := lo; a < hi; a += chunkEntries {
			hook.step()
			s, f := fusedTopNRandSpan(ints, a, min(a+chunkEntries, hi), rnd, h, topN)
			sent += s
			fwd += f
		}
	}
	if skip && t.SkipIndex() != nil {
		topNSpanScan(t, col, topN, h, skipped, scan)
	} else {
		scan(0, t.NumRows())
	}
	if rnd != nil {
		rnd.AddStats(uint64(sent), uint64(sent-fwd))
	} else {
		det.AddStats(uint64(sent), uint64(sent-fwd))
	}
	return sent, fwd
}

func fusedTopN(q *Query, opts CheetahOptions) (*CheetahRun, bool, error) {
	pr, ok, err := compiledProgram[prune.Pruner](q, opts)
	if err != nil {
		return nil, ok, err
	}
	rnd, isRand := pr.(*prune.RandTopN)
	det, isDet := pr.(*prune.DetTopN)
	if !isRand && !isDet {
		return nil, false, nil
	}
	col := q.Table.Schema().MustIndex(q.OrderCol)
	run := &CheetahRun{PrunerName: pr.Name()}
	// The heap never holds more than the table's rows, whatever N claims.
	h := make(int64Heap, 0, min(q.N, q.Table.NumRows()))
	sent, fwd := fusedTopNScan(q.Table, col, q.N, opts.Workers, rnd, det, opts.Flow, opts.Skip, &h, &run.Skipped)
	run.Traffic.EntriesSent = sent
	run.Traffic.Forwarded = fwd
	cells := make([]string, len(h))
	for i, v := range h {
		cells[i] = strconv.FormatInt(v, 10)
	}
	radixSortStrings(cells)
	run.Result = &Result{Columns: []string{q.OrderCol}, Rows: singleCellRows(cells)}
	run.Traffic.MasterProcessed = fwd
	run.Stats = pr.Stats()
	return run, true, nil
}

// --- GROUP BY MAX ------------------------------------------------------

// fusedGroupByMaxScan streams (key fingerprint, value) through the
// keyed-max matrix in worker-interleave order, folding survivors into
// the master's fingerprint-keyed maxima with one representative row per
// key for late materialization.
func fusedGroupByMaxScan(t *table.Table, kc, vc int, seed uint64, g *prune.GroupBy, workers int, flow Flow,
	keyIdx map[uint64]int, maxs *[]int64, reps *[]int) (sent, fwd int) {
	vals := t.Int64Col(vc)
	m, neg := g.FusedMatrix()
	s := newFPScan(t, []int{kc}, seed, workers, flow)
	for s.next() {
		for i, fp := range s.fps {
			r := s.rows[i]
			v := vals[r]
			ov := v
			if neg {
				ov = -v
			}
			if m.Offer(fp, ov) {
				continue
			}
			fwd++
			if k, ok := keyIdx[fp]; ok {
				if v > (*maxs)[k] {
					(*maxs)[k] = v
				}
			} else {
				keyIdx[fp] = len(*maxs)
				*maxs = append(*maxs, v)
				*reps = append(*reps, r)
			}
		}
	}
	return t.NumRows(), fwd
}

func fusedGroupByMax(q *Query, opts CheetahOptions) (*CheetahRun, bool, error) {
	g, ok, err := compiledProgram[*prune.GroupBy](q, opts)
	if !ok || err != nil {
		return nil, ok, err
	}
	kc := q.Table.Schema().MustIndex(q.KeyCol)
	vc := q.Table.Schema().MustIndex(q.AggCol)
	run := &CheetahRun{PrunerName: g.Name()}
	keyIdx := make(map[uint64]int, 1024)
	var maxs []int64
	var reps []int
	sent, fwd := fusedGroupByMaxScan(q.Table, kc, vc, opts.Seed, g, opts.Workers, opts.Flow, keyIdx, &maxs, &reps)
	g.AddStats(uint64(sent), uint64(sent-fwd))
	run.Traffic.EntriesSent = sent
	run.Traffic.Forwarded = fwd
	rows := make([][]string, len(maxs))
	backing := make([]string, len(maxs)*2)
	for i := range maxs {
		row := backing[i*2 : i*2+2 : i*2+2]
		row[0] = cellString(q.Table, kc, reps[i])
		row[1] = strconv.FormatInt(maxs[i], 10)
		rows[i] = row
	}
	run.Result = sortedResult([]string{q.KeyCol, "max(" + q.AggCol + ")"}, rows)
	run.Traffic.MasterProcessed = fwd
	run.Stats = g.Stats()
	return run, true, nil
}

// --- GROUP BY SUM ------------------------------------------------------

// fusedGroupBySumScan streams (key fingerprint, value) through the
// in-switch aggregation matrix in worker-interleave order. The key
// dictionary entry is recorded before ProcessEmit, which may rewrite the
// forwarded pair with an evicted aggregate.
func fusedGroupBySumScan(t *table.Table, kc, vc int, seed uint64, gs *prune.GroupBySum, workers int, flow Flow,
	fpToKey map[uint64]string, sums map[uint64]int64) (sent, fwd int) {
	vals := t.Int64Col(vc)
	var vbuf [2]uint64
	s := newFPScan(t, []int{kc}, seed, workers, flow)
	for s.next() {
		for i, fp := range s.fps {
			r := s.rows[i]
			if _, ok := fpToKey[fp]; !ok {
				fpToKey[fp] = cellString(t, kc, r)
			}
			vbuf[0] = fp
			vbuf[1] = uint64(vals[r])
			if d, out := gs.ProcessEmit(vbuf[:]); d == switchsim.Forward {
				fwd++
				sums[out[0]] += int64(out[1])
			}
		}
	}
	return t.NumRows(), fwd
}

func fusedGroupBySum(q *Query, opts CheetahOptions) (*CheetahRun, bool, error) {
	gs, ok, err := compiledProgram[*prune.GroupBySum](q, opts)
	if !ok || err != nil {
		return nil, ok, err
	}
	kc := q.Table.Schema().MustIndex(q.KeyCol)
	vc := q.Table.Schema().MustIndex(q.AggCol)
	run := &CheetahRun{PrunerName: gs.Name()}
	sums := map[uint64]int64{}
	fpToKey := map[uint64]string{}
	sent, fwd := fusedGroupBySumScan(q.Table, kc, vc, opts.Seed, gs, opts.Workers, opts.Flow, fpToKey, sums)
	run.Traffic.EntriesSent = sent
	run.Traffic.Forwarded = fwd
	for _, e := range gs.Drain() {
		run.Traffic.Forwarded++
		sums[e[0]] += int64(e[1])
	}
	rows := make([][]string, 0, len(sums))
	for fp, v := range sums {
		rows = append(rows, []string{fpToKey[fp], strconv.FormatInt(v, 10)})
	}
	run.Result = sortedResult([]string{q.KeyCol, "sum(" + q.AggCol + ")"}, rows)
	run.Traffic.MasterProcessed = len(sums)
	run.Stats = gs.Stats()
	return run, true, nil
}

// --- HAVING ------------------------------------------------------------
//
// HAVING completes in two passes (§4.3), and each does its per-row work
// once. Pass 1 streams (key fingerprint, value) through the Count-Min
// sketch and keeps every row's fingerprint; forwarded entries' keys
// become candidates, numbered densely by a candTable that also records
// each candidate's representative key (the key of its first forwarded
// entry). Pass 2 reads the kept fingerprints instead of re-hashing, and
// sums a candidate row into its slot when the row's key equals the
// slot's representative. A row whose key differs shares a fingerprint
// with another key; it is summed by key string in an overflow map, so
// Results stay exact whatever collides.

// candBucket is one candTable index bucket: a fingerprint and its
// slot+1 (0 marks an empty bucket, since any fingerprint may be 0).
type candBucket struct {
	fp   uint64
	slot int32
}

// candTable numbers candidate key fingerprints densely in insertion
// order and keeps each slot's representative key. Its index is open
// addressing over a power-of-two bucket array at most half full. Once
// built it is only read, so every shard's pass 2 reads one table at once.
type candTable struct {
	index []candBucket
	fps   []uint64 // slot → fingerprint
	reps  colAcc   // slot → representative key
}

func newCandTable(strKey bool) *candTable {
	return &candTable{index: make([]candBucket, 64), reps: colAcc{isStr: strKey}}
}

// size returns the number of slots.
func (c *candTable) size() int { return len(c.fps) }

// slot returns fp's slot, or -1 when fp is not a candidate.
func (c *candTable) slot(fp uint64) int {
	mask := uint64(len(c.index) - 1)
	for b := fp & mask; ; b = (b + 1) & mask {
		e := c.index[b]
		if e.slot == 0 {
			return -1
		}
		if e.fp == fp {
			return int(e.slot - 1)
		}
	}
}

// add makes fp a candidate; when it is new, its slot's representative
// is key's value at row r.
func (c *candTable) add(fp uint64, key *colAcc, r int) {
	mask := uint64(len(c.index) - 1)
	b := fp & mask
	for ; c.index[b].slot != 0; b = (b + 1) & mask {
		if c.index[b].fp == fp {
			return
		}
	}
	c.fps = append(c.fps, fp)
	c.index[b] = candBucket{fp: fp, slot: int32(len(c.fps))}
	if key.isStr {
		c.reps.strs = append(c.reps.strs, key.strs[r])
	} else {
		c.reps.ints = append(c.reps.ints, key.ints[r])
	}
	if 2*len(c.fps) > len(c.index) {
		c.rehash(2 * len(c.index))
	}
}

func (c *candTable) rehash(buckets int) {
	c.index = make([]candBucket, buckets)
	mask := uint64(buckets - 1)
	for s, fp := range c.fps {
		b := fp & mask
		for c.index[b].slot != 0 {
			b = (b + 1) & mask
		}
		c.index[b] = candBucket{fp: fp, slot: int32(s + 1)}
	}
}

// union adds o's candidates, with their representatives, in o's slot
// order.
func (c *candTable) union(o *candTable) {
	for s, fp := range o.fps {
		c.add(fp, &o.reps, s)
	}
}

// isRep reports whether row r's key is slot s's representative.
func (c *candTable) isRep(s int, key *colAcc, r int) bool {
	if key.isStr {
		return key.strs[r] == c.reps.strs[s]
	}
	return key.ints[r] == c.reps.ints[s]
}

// havingSums is a pass 2's exact aggregate: the summed values of the
// rows whose key is their slot's representative, the colliding rows'
// values summed by key string, and the re-streamed row count.
type havingSums struct {
	slots    []int64
	overflow map[string]int64
	resent   int
}

// merge adds o into hs: slot sums by slot index (both were summed
// against one candTable), overflow by key.
func (hs *havingSums) merge(o havingSums) {
	for s, v := range o.slots {
		hs.slots[s] += v
	}
	if len(o.overflow) > 0 && hs.overflow == nil {
		hs.overflow = make(map[string]int64, len(o.overflow))
	}
	for k, v := range o.overflow {
		hs.overflow[k] += v
	}
	hs.resent += o.resent
}

// result keeps the keys whose exact sum exceeds threshold. Slot
// representatives are distinct keys, and an overflow key differs from
// its own fingerprint's representative, so no key is counted twice.
func (hs *havingSums) result(col string, cand *candTable, threshold int64) *Result {
	rows := make([][]string, 0, len(hs.slots)+len(hs.overflow))
	for s, v := range hs.slots {
		if v > threshold {
			rows = append(rows, []string{cand.reps.cell(s)})
		}
	}
	for k, v := range hs.overflow {
		if v > threshold {
			rows = append(rows, []string{k})
		}
	}
	return sortedResult([]string{col}, rows)
}

// fusedHavingPass1 streams (key fingerprint, value) through the
// Count-Min sketch in worker-interleave order. It returns every row's
// key fingerprint, indexed by row, and the forwarded entries' candidate
// table. The fingerprint slice is allocated per query: it dies with the
// query instead of pinning a pool buffer the size of the largest table.
func fusedHavingPass1(t *table.Table, kc, vc int, seed uint64, h *prune.Having, workers int, flow Flow) (fps []uint64, cand *candTable, fwd int) {
	vals := t.Int64Col(vc)
	key := accessorFor(t, kc)
	fps = make([]uint64, t.NumRows())
	cand = newCandTable(key.isStr)
	s := newFPScan(t, []int{kc}, seed, workers, flow)
	for s.next() {
		for i, fp := range s.fps {
			r := s.rows[i]
			fps[r] = fp
			if h.FusedOffer(fp, vals[r]) {
				continue
			}
			fwd++
			cand.add(fp, &key, r)
		}
	}
	return fps, cand, fwd
}

// fusedHavingPass2 is the exact partial second pass over the rows whose
// pass-1 fingerprints are fps: candidate keys' entries re-stream and the
// master sums them exactly. No pruner state is touched, so plain row
// order gives identical sums and counts.
func fusedHavingPass2(key colAcc, vals []int64, fps []uint64, cand *candTable) havingSums {
	hs := havingSums{slots: make([]int64, cand.size())}
	for r, fp := range fps {
		s := cand.slot(fp)
		if s < 0 {
			continue
		}
		hs.resent++
		if cand.isRep(s, &key, r) {
			hs.slots[s] += vals[r]
			continue
		}
		if hs.overflow == nil {
			hs.overflow = map[string]int64{}
		}
		hs.overflow[key.cell(r)] += vals[r]
	}
	return hs
}

func fusedHaving(q *Query, opts CheetahOptions) (*CheetahRun, bool, error) {
	h, ok, err := compiledProgram[*prune.Having](q, opts)
	if !ok || err != nil {
		return nil, ok, err
	}
	kc := q.Table.Schema().MustIndex(q.KeyCol)
	vc := q.Table.Schema().MustIndex(q.AggCol)
	run := &CheetahRun{PrunerName: h.Name()}
	fps, cand, fwd := fusedHavingPass1(q.Table, kc, vc, opts.Seed, h, opts.Workers, opts.Flow)
	sent := q.Table.NumRows()
	h.AddStats(uint64(sent), uint64(sent-fwd))
	hs := fusedHavingPass2(accessorFor(q.Table, kc), q.Table.Int64Col(vc), fps, cand)
	run.Traffic.EntriesSent = sent + hs.resent
	run.Traffic.Forwarded = fwd
	run.Traffic.SecondPassSent = hs.resent
	run.Traffic.MasterProcessed = hs.resent
	run.Result = hs.result(q.KeyCol, cand, q.Threshold)
	run.Stats = h.Stats()
	return run, true, nil
}

// --- JOIN --------------------------------------------------------------

// joinInput is one JOIN side as a pass scans it: table t's key column
// kc over spans. A non-nil sel makes the side a row selection of t (a
// hash shard): spans then index sel, and rows are reported as sel's
// entries — t's coordinates, which the master's joinPairs reads.
type joinInput struct {
	t     *table.Table
	kc    int
	spans []span
	sel   []int
}

// newJoinInput scans every row of t, or of its selection sel.
func newJoinInput(t *table.Table, kc int, sel []int) joinInput {
	n := t.NumRows()
	if sel != nil {
		n = len(sel)
	}
	return joinInput{t: t, kc: kc, spans: []span{{0, n}}, sel: sel}
}

// size is the number of entries one pass over the side sends.
func (in *joinInput) size() int {
	n := 0
	for _, sp := range in.spans {
		n += sp.hi - sp.lo
	}
	return n
}

// row maps a scan ordinal to its row of t.
func (in *joinInput) row(o int) int {
	if in.sel != nil {
		return in.sel[o]
	}
	return o
}

// probe re-streams the side from its fingerprints (fps, in scan order)
// and appends to rows the rows whose fingerprint tests positive in mem.
func (in *joinInput) probe(fps []uint64, mem sketch.Membership, flow Flow, rows []int) []int {
	hook := newChunkHook(flow, 1)
	k := 0
	for _, sp := range in.spans {
		for o := sp.lo; o < sp.hi; o++ {
			hook.step()
			if mem.Contains(fps[k]) {
				rows = append(rows, in.row(o))
			}
			k++
		}
	}
	return rows
}

// scan streams the side once, fingerprinting each key, and appends to
// rows the rows whose fingerprint keep accepts.
func (in *joinInput) scan(seed uint64, flow Flow, keep func(fp uint64) bool, rows []int) []int {
	fpr := newRowFP(in.t, []int{in.kc}, seed)
	hook := newChunkHook(flow, 1)
	seen, total := 0, in.size()
	for _, sp := range in.spans {
		for o := sp.lo; o < sp.hi; o++ {
			hook.step()
			seen++
			if r := in.row(o); keep(fpr.fp(r)) {
				if len(rows) == cap(rows) {
					rows = growProjected(rows, 1, seen, total-seen)
				}
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// fusedJoinCore runs a whole Bloom join — build and probe — over the two
// sides as fused loops on j's filters, deposits the stats, and returns
// both sides' surviving rows and the traffic. Every key is fingerprinted
// once. Bloom Add is commutative and Contains does not mutate, so any
// order that completes a filter before probing against it matches the
// scalar protocol's totals: the symmetric join keeps only the smaller
// side's fingerprints and streams the larger side once, training its
// filter while probing the other's. j must be in its build phase.
func fusedJoinCore(j *prune.Join, seed uint64, flow Flow, l, r joinInput) (left, right []int, tr Traffic) {
	fa, fb := j.FusedFilters()
	nl, nr := l.size(), r.size()
	if j.Asymmetric() {
		// §4.3's small-table optimization: side A streams once, unpruned,
		// while its filter trains; then side B is pruned against it.
		left = l.scan(seed, flow, func(fp uint64) bool { fa.Add(fp); return true }, make([]int, 0, nl))
		j.StartProbe()
		right = r.scan(seed, flow, fa.Contains, nil)
		tr.EntriesSent = nl + nr
	} else {
		// The protocol's pass 1 trains both filters (packets terminate at
		// the switch) and pass 2 sends both sides again, each pruned by
		// the other's filter.
		kept, streamed := &r, &l
		keptF, streamedF := fb, fa
		if nl < nr {
			kept, streamed, keptF, streamedF = &l, &r, fa, fb
		}
		fps := make([]uint64, 0, kept.size())
		kept.scan(seed, flow, func(fp uint64) bool { fps = append(fps, fp); keptF.Add(fp); return false }, nil)
		sRows := streamed.scan(seed, flow, func(fp uint64) bool { streamedF.Add(fp); return keptF.Contains(fp) }, nil)
		j.StartProbe()
		kRows := kept.probe(fps, streamedF, flow, nil)
		left, right = sRows, kRows
		if kept == &l {
			left, right = kRows, sRows
		}
		tr.EntriesSent = 2 * (nl + nr)
	}
	tr.Forwarded = len(left) + len(right)
	tr.MasterProcessed = tr.Forwarded
	j.AddStats(uint64(tr.EntriesSent), uint64(tr.EntriesSent-tr.Forwarded))
	return left, right, tr
}

func fusedJoin(q *Query, opts CheetahOptions) (*CheetahRun, bool, error) {
	j, ok, err := compiledProgram[*prune.Join](q, opts)
	if !ok || err != nil {
		return nil, ok, err
	}
	// The fused passes hard-code which filter each pass trains or probes;
	// that only matches the protocol when the pruner starts in the build
	// phase (a mid-phase pruner runs on the scalar path, whose passes
	// consult the live phase).
	if j.Phase() != prune.PhaseBuild {
		return nil, false, nil
	}
	lc := q.Table.Schema().MustIndex(q.LeftKey)
	rc := q.Right.Schema().MustIndex(q.RightKey)
	run := &CheetahRun{PrunerName: j.Name()}
	l, r := newJoinInput(q.Table, lc, nil), newJoinInput(q.Right, rc, nil)
	if opts.Skip {
		r.spans, run.Skipped = joinRightSpans(q.Table, lc, q.Right, rc)
	}
	left, right, tr := fusedJoinCore(j, opts.Seed, opts.Flow, l, r)
	run.Traffic = tr
	run.Result = sortedResult(joinColumns(q), joinPairs(q, left, right))
	run.Stats = j.Stats()
	return run, true, nil
}

// --- SKYLINE -----------------------------------------------------------

// fusedSkylineScan streams the dimension tuples through the skyline
// pool in worker-interleave order. The pool's swap/drop logic (and its
// stats) live in Process; the fused win is the devirtualized call and
// the in-loop survivor collection. Each forwarded entry reports the id
// Process leaves in the packet — the point the packet carries out,
// which differs from the arriving row after a swap. A non-nil sel scans
// that row selection of t, in selection order, with t's rows as ids.
func fusedSkylineScan(t *table.Table, sel []int, cols []int, s *prune.Skyline, workers int, flow Flow,
	rows *[]int) (sent, fwd int) {
	n := t.NumRows()
	if sel != nil {
		n = len(sel)
	}
	if n == 0 {
		return 0, 0
	}
	if workers <= 0 {
		workers = 1
	}
	starts := rrStarts(0, n, workers)
	ints := make([][]int64, len(cols))
	for i, c := range cols {
		ints[i] = t.Int64Col(c)
	}
	vals := make([]uint64, len(cols)+1)
	hook := newChunkHook(flow, workers)
	for k, done := 0, 0; done < n; k++ {
		hook.step()
		for w := 0; w < workers; w++ {
			r := starts[w] + k
			if r >= starts[w+1] {
				continue
			}
			done++
			if sel != nil {
				r = sel[r]
			}
			for i, src := range ints {
				vals[i] = uint64(src[r])
			}
			vals[len(ints)] = uint64(r)
			if s.Process(vals) == switchsim.Forward {
				fwd++
				*rows = append(*rows, int(vals[len(ints)]))
			}
		}
	}
	return n, fwd
}

func fusedSkyline(q *Query, opts CheetahOptions) (*CheetahRun, bool, error) {
	s, ok, err := compiledProgram[*prune.Skyline](q, opts)
	if !ok || err != nil {
		return nil, ok, err
	}
	cols := make([]int, len(q.SkylineCols))
	for i, c := range q.SkylineCols {
		cols[i] = q.Table.Schema().MustIndex(c)
	}
	run := &CheetahRun{PrunerName: s.Name()}
	var survivors []int
	sent, fwd := fusedSkylineScan(q.Table, nil, cols, s, opts.Workers, opts.Flow, &survivors)
	run.Traffic.EntriesSent = sent
	run.Traffic.Forwarded = fwd
	for _, e := range s.Drain() {
		run.Traffic.Forwarded++
		survivors = append(survivors, int(e[len(cols)]))
	}
	res, err := completeOnRows(q, survivors)
	if err != nil {
		return nil, true, err
	}
	run.Result = res
	run.Traffic.MasterProcessed = len(survivors)
	run.Stats = s.Stats()
	return run, true, nil
}

// --- dispatch ----------------------------------------------------------

// execCheetahFused compiles and runs the query as one fused loop per
// pass. ok=false means the compiler cannot own this execution (a pruner
// type it does not know, mid-phase join state) and the scalar path must
// run instead; when ok=true the run (or error) is final.
func execCheetahFused(q *Query, opts CheetahOptions) (*CheetahRun, bool, error) {
	switch q.Kind {
	case KindFilter:
		return fusedFilter(q, opts)
	case KindDistinct:
		return fusedDistinct(q, opts)
	case KindTopN:
		return fusedTopN(q, opts)
	case KindGroupByMax:
		return fusedGroupByMax(q, opts)
	case KindGroupBySum:
		return fusedGroupBySum(q, opts)
	case KindHaving:
		return fusedHaving(q, opts)
	case KindJoin:
		return fusedJoin(q, opts)
	case KindSkyline:
		return fusedSkyline(q, opts)
	default:
		return nil, false, nil
	}
}
