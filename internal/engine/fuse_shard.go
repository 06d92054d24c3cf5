package engine

// Sharded-path bindings of the fused compiler (fuse.go): each method
// runs one shard's whole pruning pass as fused loops on the shard's
// program. Traffic, Stats and the shard partials handed to the global
// combine are bit-identical to a scalar pass over the shard (with the
// same single sanctioned deviation as the single-switch path: the
// randomized TOP N RNG stream). Failover composes unchanged — these run
// inside shardExec.run, so a pass that crossed its switch's death is
// discarded and redone.

import (
	"fmt"

	"cheetah/internal/prune"
)

// shardProgram returns shard se's program as the concrete type its
// compiled pass drives; a program of any other type is an error.
func shardProgram[P prune.Pruner](se *shardExec) (P, error) {
	p, ok := se.pruner.(P)
	if !ok {
		return p, fmt.Errorf("engine: sharded %v needs a %T program, got %T", se.q.Kind, p, se.pruner)
	}
	return p, nil
}

// gatherPass runs one FILTER or SKYLINE shard stream (including
// SKYLINE's control-plane drain) and returns the shard's surviving row
// ids in q.Table's coordinates.
func (se *shardExec) gatherPass(opts ShardedOptions) ([]int, error) {
	q := se.q
	if q.Kind == KindFilter {
		f, err := shardProgram[*prune.Filter](se)
		if err != nil {
			return nil, err
		}
		cols := make([]int, len(q.Predicates))
		for i, p := range q.Predicates {
			cols[i] = q.Table.Schema().MustIndex(p.Col)
		}
		spans := []span{{0, se.numRows()}}
		if opts.Skip && se.sel == nil {
			// Contiguous shards are views of the indexed root and skip
			// against its (root-aligned) blocks; selections never skip.
			spans, se.skipped = filterSpans(q, q.Table, cols)
		}
		var rows []int
		sent, fwd := fusedFilterScan(q.Table, se.sel, q.Predicates, cols, f, spans, se.flow, &rows)
		f.AddStats(uint64(sent), uint64(sent-fwd))
		se.traffic.EntriesSent = sent
		se.traffic.Forwarded = fwd
		se.traffic.MasterProcessed = len(rows)
		return rows, nil
	}
	sk, err := shardProgram[*prune.Skyline](se)
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(q.SkylineCols))
	for i, c := range q.SkylineCols {
		cols[i] = q.Table.Schema().MustIndex(c)
	}
	var rows []int
	sent, fwd := fusedSkylineScan(q.Table, se.sel, cols, sk, opts.Workers, se.flow, &rows)
	se.traffic.EntriesSent = sent
	se.traffic.Forwarded = fwd
	// Control-plane drain of the stored points at FIN.
	for _, e := range sk.Drain() {
		se.traffic.Forwarded++
		rows = append(rows, int(e[len(cols)]))
	}
	se.traffic.MasterProcessed = len(rows)
	return rows, nil
}

// distinctPass runs one DISTINCT shard stream and returns the shard's
// first-seen unique rows with their fingerprints (the global combine's
// dedupe keys).
func (se *shardExec) distinctPass(opts ShardedOptions, cols []int) (fps []uint64, rows []int, err error) {
	d, err := shardProgram[*prune.Distinct](se)
	if err != nil {
		return nil, nil, err
	}
	seen := make(map[uint64]struct{}, 1024)
	sent, fwd := fusedDistinctScan(se.q.Table, cols, opts.Seed, d.FusedMatrix(), opts.Workers, se.flow, seen, &rows)
	d.AddStats(uint64(sent), uint64(sent-fwd))
	se.traffic.EntriesSent = sent
	se.traffic.Forwarded = fwd
	se.traffic.MasterProcessed = fwd
	// The scan dedupes by fingerprint but keeps only rows; recompute the
	// fingerprints of the (few) unique rows for the cross-shard combine.
	fpr := newRowFP(se.q.Table, cols, opts.Seed)
	fps = make([]uint64, len(rows))
	for i, r := range rows {
		fps[i] = fpr.fp(r)
	}
	return fps, rows, nil
}

// topNPass runs one TOP N shard stream into the shard-local N-heap.
// With Skip, the shard heap's h[0] is a valid (if looser) lower bound
// for the shard's own top N, which is all the global merge consumes
// from this shard.
func (se *shardExec) topNPass(opts ShardedOptions, col int) (int64Heap, error) {
	var rnd *prune.RandTopN
	var det *prune.DetTopN
	switch p := se.pruner.(type) {
	case *prune.RandTopN:
		rnd = p
	case *prune.DetTopN:
		det = p
	default:
		return nil, fmt.Errorf("engine: sharded %v needs a *prune.RandTopN or *prune.DetTopN program, got %T", se.q.Kind, se.pruner)
	}
	q := se.q
	h := make(int64Heap, 0, min(q.N, q.Table.NumRows()))
	sent, fwd := fusedTopNScan(q.Table, col, q.N, opts.Workers, rnd, det, se.flow, opts.Skip, &h, &se.skipped)
	se.traffic.EntriesSent = sent
	se.traffic.Forwarded = fwd
	se.traffic.MasterProcessed = len(h)
	return h, nil
}

// groupByMaxPass runs one GROUP BY MAX shard stream and returns the
// shard's fingerprint-keyed partial maxima (fps in first-seen order,
// with one representative row per key).
func (se *shardExec) groupByMaxPass(opts ShardedOptions, kc, vc int) (fps []uint64, maxs []int64, reps []int, err error) {
	g, err := shardProgram[*prune.GroupBy](se)
	if err != nil {
		return nil, nil, nil, err
	}
	keyIdx := make(map[uint64]int, 1024)
	sent, fwd := fusedGroupByMaxScan(se.q.Table, kc, vc, opts.Seed, g, opts.Workers, se.flow, keyIdx, &maxs, &reps)
	g.AddStats(uint64(sent), uint64(sent-fwd))
	se.traffic.EntriesSent = sent
	se.traffic.Forwarded = fwd
	se.traffic.MasterProcessed = len(maxs)
	// keyIdx assigns dense first-seen indices; inverting it recovers the
	// fingerprint list in first-seen order.
	fps = make([]uint64, len(maxs))
	for fp, i := range keyIdx {
		fps[i] = fp
	}
	return fps, maxs, reps, nil
}

// groupBySumPass runs one GROUP BY SUM shard stream (including the
// end-of-stream drain) and returns the shard's partial sums and key
// dictionary.
func (se *shardExec) groupBySumPass(opts ShardedOptions, kc, vc int) (sums map[uint64]int64, fpToKey map[uint64]string, err error) {
	gs, err := shardProgram[*prune.GroupBySum](se)
	if err != nil {
		return nil, nil, err
	}
	sums = make(map[uint64]int64, 1024)
	fpToKey = make(map[uint64]string, 1024)
	sent, fwd := fusedGroupBySumScan(se.q.Table, kc, vc, opts.Seed, gs, opts.Workers, se.flow, fpToKey, sums)
	se.traffic.EntriesSent = sent
	se.traffic.Forwarded = fwd
	for _, e := range gs.Drain() {
		se.traffic.Forwarded++
		sums[e[0]] += int64(e[1])
	}
	se.traffic.MasterProcessed = len(sums)
	return sums, fpToKey, nil
}

// havingCandidates runs one HAVING first-pass shard stream through the
// shard's (threshold-tightened) sketch and returns the shard's row
// fingerprints and candidate table. The exact second pass is
// pruner-free and shared with the single-switch path (fusedHavingPass2).
func (se *shardExec) havingCandidates(opts ShardedOptions, kc, vc int) ([]uint64, *candTable, error) {
	h, err := shardProgram[*prune.Having](se)
	if err != nil {
		return nil, nil, err
	}
	fps, cand, fwd := fusedHavingPass1(se.q.Table, kc, vc, opts.Seed, h, opts.Workers, se.flow)
	sent := se.q.Table.NumRows()
	h.AddStats(uint64(sent), uint64(sent-fwd))
	se.traffic.EntriesSent = sent
	se.traffic.Forwarded = fwd
	return fps, cand, nil
}
