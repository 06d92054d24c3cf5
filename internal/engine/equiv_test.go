package engine

import (
	"fmt"
	"testing"

	"cheetah/internal/boolexpr"
	"cheetah/internal/prune"
	"cheetah/internal/table"
)

// newTestJoinPruner builds a join pruner with a small filter for the
// asymmetric equivalence test.
func newTestJoinPruner(asym bool, seed uint64) (*prune.Join, error) {
	return prune.NewJoin(prune.JoinConfig{FilterBits: 1 << 16, Hashes: 3, Asymmetric: asym, Seed: seed})
}

// equivTable builds a small mixed-type table with skewed keys, duplicate
// values and a nearly-sorted numeric column, so every pruner sees hits,
// misses, evictions and ties.
func equivTable(t *testing.T, rows int, seed uint64) *table.Table {
	t.Helper()
	tb := table.MustNew(table.Schema{
		{Name: "name", Type: table.String},
		{Name: "score", Type: table.Int64},
		{Name: "group", Type: table.String},
		{Name: "val", Type: table.Int64},
		{Name: "dim1", Type: table.Int64},
		{Name: "dim2", Type: table.Int64},
	})
	s := seed
	next := func(mod int64) int64 {
		s = s*6364136223846793005 + 1442695040888963407
		v := int64(s >> 33)
		if v < 0 {
			v = -v
		}
		return v % mod
	}
	for i := 0; i < rows; i++ {
		name := fmt.Sprintf("user%04d", next(500))
		group := fmt.Sprintf("g%02d", next(37))
		if err := tb.AppendRow(name, next(100_000)+1, group, next(1000), next(5000)+1, next(5000)+1); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// equivQueries returns one query per kind over tb (joins use rt as the
// probe side).
func equivQueries(tb, rt *table.Table) map[string]*Query {
	return map[string]*Query{
		"filter": {
			Kind:  KindFilter,
			Table: tb,
			Predicates: []FilterPred{
				{Col: "score", Op: prune.OpGT, Const: 40_000},
				{Col: "val", Op: prune.OpLT, Const: 700},
				{Col: "name", Like: "user0%"},
			},
			Formula: boolexpr.Or{boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}}, boolexpr.Leaf{V: 2}},
		},
		"filter-count": {
			Kind:  KindFilter,
			Table: tb,
			Predicates: []FilterPred{
				{Col: "score", Op: prune.OpGT, Const: 60_000},
			},
			Formula:   boolexpr.Leaf{V: 0},
			CountOnly: true,
		},
		"distinct-string": {Kind: KindDistinct, Table: tb, DistinctCols: []string{"name"}},
		"distinct-multi":  {Kind: KindDistinct, Table: tb, DistinctCols: []string{"group", "val"}},
		"topn":            {Kind: KindTopN, Table: tb, OrderCol: "score", N: 50},
		"groupby-max":     {Kind: KindGroupByMax, Table: tb, KeyCol: "group", AggCol: "score"},
		"groupby-sum":     {Kind: KindGroupBySum, Table: tb, KeyCol: "group", AggCol: "val"},
		"having":          {Kind: KindHaving, Table: tb, KeyCol: "name", AggCol: "val", Threshold: 2000},
		"join":            {Kind: KindJoin, Table: tb, Right: rt, LeftKey: "name", RightKey: "name"},
		"skyline":         {Kind: KindSkyline, Table: tb, SkylineCols: []string{"dim1", "dim2"}},
	}
}

// scalarTrafficExempt marks the kinds whose Traffic/Stats may diverge
// between the compiled and scalar paths: randomized TOP N draws its row
// choices from a counter-indexed RNG stream (prune.FusedRandState).
func scalarTrafficExempt(name string) bool { return name == "topn" }

// assertMatchesOracles checks one compiled run against the two
// oracles: the Result equals ExecDirect's row for row, and PrunerName,
// Traffic and Stats equal the scalar path's (unless exempt).
func assertMatchesOracles(t *testing.T, label string, q *Query, run, scalar *CheetahRun, exempt bool) {
	t.Helper()
	direct, err := ExecDirect(q)
	if err != nil {
		t.Fatalf("%s direct: %v", label, err)
	}
	if !run.Result.Equal(direct) {
		t.Fatalf("%s: result diverges from ExecDirect\ndirect:\n%s\ngot:\n%s", label, direct, run.Result)
	}
	// Row-for-row order must match too: every path emits Result.Sort
	// order.
	for i := range direct.Rows {
		for j := range direct.Rows[i] {
			if direct.Rows[i][j] != run.Result.Rows[i][j] {
				t.Fatalf("%s: row %d cell %d: %q vs %q", label, i, j, direct.Rows[i][j], run.Result.Rows[i][j])
			}
		}
	}
	if run.PrunerName != scalar.PrunerName {
		t.Fatalf("%s: pruner name %q vs scalar %q", label, run.PrunerName, scalar.PrunerName)
	}
	if exempt {
		return
	}
	if run.Traffic != scalar.Traffic {
		t.Fatalf("%s: traffic diverges\nscalar: %+v\ngot:    %+v", label, scalar.Traffic, run.Traffic)
	}
	if run.Stats != scalar.Stats {
		t.Fatalf("%s: stats diverge\nscalar: %+v\ngot:    %+v", label, scalar.Stats, run.Stats)
	}
}

// TestBatchMatchesScalarExec is the compiled-vs-oracles suite: for every
// query kind, worker count and seed, the compiled path must produce the
// Result of ExecDirect and the Traffic and Stats of the scalar path
// (randomized TOP N exempt).
func TestBatchMatchesScalarExec(t *testing.T) {
	tb := equivTable(t, 5000, 0x5eed)
	rt := equivTable(t, 1777, 0x0dd)
	queries := equivQueries(tb, rt)
	// Worker counts straddle the partition-size edge cases: 1 (no
	// interleave), even/odd splits, and more workers than divides
	// evenly (unequal partitions with a partial final cycle).
	for name, q := range queries {
		for _, workers := range []int{1, 2, 3, 5, 8} {
			for _, seed := range []uint64{1, 0xfeed} {
				label := fmt.Sprintf("%s w=%d seed=%d", name, workers, seed)
				scalar, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: seed, Scalar: true})
				if err != nil {
					t.Fatalf("%s scalar: %v", label, err)
				}
				run, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: seed})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertMatchesOracles(t, label, q, run, scalar, scalarTrafficExempt(name))
			}
		}
	}
}

// TestBatchTinyTables exercises the interleave's degenerate layouts for
// every kind: empty tables, fewer rows than workers, and single rows.
func TestBatchTinyTables(t *testing.T) {
	for _, rows := range []int{0, 1, 2, 3, 7} {
		tb := equivTable(t, rows, 0x11)
		rt := equivTable(t, rows, 0x12)
		for name, q := range equivQueries(tb, rt) {
			for _, workers := range []int{1, 4, 16} {
				label := fmt.Sprintf("%s rows=%d w=%d", name, rows, workers)
				scalar, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 3, Scalar: true})
				if err != nil {
					t.Fatalf("%s scalar: %v", label, err)
				}
				run, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 3})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertMatchesOracles(t, label, q, run, scalar, scalarTrafficExempt(name))
			}
		}
	}
}

// TestBatchAsymmetricJoin covers the small-table optimization's
// unpruned build pass on the compiled path.
func TestBatchAsymmetricJoin(t *testing.T) {
	tb := equivTable(t, 900, 0x21)
	rt := equivTable(t, 4000, 0x22)
	q := &Query{Kind: KindJoin, Table: tb, Right: rt, LeftKey: "name", RightKey: "name"}
	for _, workers := range []int{1, 5} {
		pa, err := newTestJoinPruner(true, 7)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := newTestJoinPruner(true, 7)
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 7, Scalar: true, Pruner: pa})
		if err != nil {
			t.Fatal(err)
		}
		run, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 7, Pruner: pb})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesOracles(t, fmt.Sprintf("asymmetric join w=%d", workers), q, run, scalar, false)
	}
}

// countFlow is a Flow that never fails and counts chunk boundaries.
type countFlow struct{ chunks int }

func (f *countFlow) Chunk()     { f.chunks++ }
func (f *countFlow) Err() error { return nil }

// TestBatchMultiChunk shrinks the chunk size so the 5000-row stream
// spans many chunks, and runs every kind through a flow: state carries
// across chunk boundaries, the partial final cycle lands right, and the
// flow sees a chunk boundary per chunk.
func TestBatchMultiChunk(t *testing.T) {
	old := chunkEntries
	chunkEntries = 256
	defer func() { chunkEntries = old }()
	tb := equivTable(t, 5000, 0x41)
	rt := equivTable(t, 1777, 0x42)
	for name, q := range equivQueries(tb, rt) {
		for _, workers := range []int{1, 5, 7} {
			label := fmt.Sprintf("%s w=%d", name, workers)
			scalar, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 11, Scalar: true})
			if err != nil {
				t.Fatalf("%s scalar: %v", label, err)
			}
			p, err := defaultProgram(q, 11)
			if err != nil {
				t.Fatal(err)
			}
			flow := &countFlow{}
			run, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 11, Pruner: p, Flow: flow})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertMatchesOracles(t, label, q, run, scalar, scalarTrafficExempt(name))
			if min := run.Traffic.EntriesSent / (2 * chunkEntries); flow.chunks < max(min, 2) {
				t.Fatalf("%s: %d chunk boundaries for %d entries", label, flow.chunks, run.Traffic.EntriesSent)
			}
		}
	}
}

// opaquePruner hides a shipped pruner's concrete type, standing in for
// a third-party program the compiler does not know.
type opaquePruner struct{ prune.Pruner }

// TestBatchParallelEncode runs a pruner type the compiler does not know
// through ExecCheetah: it must take the per-entry Process path — the
// same Results, Traffic and Stats as the scalar oracle — on the kinds
// that accept any program, and be rejected with an error by the kinds
// whose completion needs the concrete type.
func TestBatchParallelEncode(t *testing.T) {
	tb := equivTable(t, 3001, 0x51)
	rt := equivTable(t, 1777, 0x52)
	for name, q := range equivQueries(tb, rt) {
		for _, workers := range []int{2, 5} {
			label := fmt.Sprintf("%s w=%d", name, workers)
			p, err := defaultProgram(q, 13)
			if err != nil {
				t.Fatal(err)
			}
			run, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 13, Pruner: opaquePruner{p}})
			switch q.Kind {
			case KindGroupBySum, KindHaving, KindJoin, KindSkyline:
				if err == nil {
					t.Fatalf("%s: opaque program accepted by a kind that needs its concrete type", label)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			ps, err := defaultProgram(q, 13)
			if err != nil {
				t.Fatal(err)
			}
			scalar, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 13, Scalar: true, Pruner: ps})
			if err != nil {
				t.Fatalf("%s scalar: %v", label, err)
			}
			// The opaque program is the scalar oracle itself, randomized
			// TOP N's serial RNG included: nothing is exempt.
			assertMatchesOracles(t, label, q, run, scalar, false)
		}
	}
}

// TestBatchCustomPrunerFilterExactCompletion: a caller-supplied filter
// pruner may forward false positives; the compiled path must keep the
// master's exact formula re-check, matching the scalar path.
func TestBatchCustomPrunerFilterExactCompletion(t *testing.T) {
	tb := equivTable(t, 3000, 0x61)
	for _, countOnly := range []bool{false, true} {
		q := &Query{
			Kind:  KindFilter,
			Table: tb,
			Predicates: []FilterPred{
				{Col: "score", Op: prune.OpGT, Const: 50_000},
				{Col: "val", Op: prune.OpLT, Const: 500},
			},
			Formula:   boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}},
			CountOnly: countOnly,
		}
		mk := func() prune.Pruner {
			// A weaker switch program: only the first predicate runs on
			// the switch, so it forwards rows failing the second one.
			f, err := prune.NewFilter(prune.FilterConfig{
				Predicates: []prune.Predicate{{ValIdx: 0, Op: prune.OpGT, Const: 50_000}},
				Formula:    boolexpr.Leaf{V: 0},
			})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		scalar, err := ExecCheetah(q, CheetahOptions{Workers: 3, Seed: 5, Scalar: true, Pruner: mk()})
		if err != nil {
			t.Fatal(err)
		}
		run, err := ExecCheetah(q, CheetahOptions{Workers: 3, Seed: 5, Pruner: mk()})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesOracles(t, fmt.Sprintf("countOnly=%v", countOnly), q, run, scalar, false)
		// The weak pruner must actually forward false positives for
		// this test to mean anything.
		direct, err := ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		if run.Traffic.Forwarded <= len(direct.Rows) && !countOnly {
			t.Fatalf("weak pruner forwarded %d ≤ %d true matches; test is vacuous", run.Traffic.Forwarded, len(direct.Rows))
		}
	}
}

// TestBatchChunkBoundaryOrder uses prime row counts so every worker
// count leaves unequal partitions and a partial final cycle: the
// deterministic TOP N program — order-sensitive, and not exempt —
// must see the scalar path's exact arrival order.
func TestBatchChunkBoundaryOrder(t *testing.T) {
	// 5003 is prime: every worker count > 1 yields unequal partitions.
	tb := equivTable(t, 5003, 0x31)
	q := &Query{Kind: KindTopN, Table: tb, OrderCol: "score", N: 25}
	mk := func() prune.Pruner {
		p, err := prune.NewDetTopN(prune.DetTopNConfig{N: 25, Thresholds: 4})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, workers := range []int{2, 3, 5, 7, 11} {
		scalar, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 9, Scalar: true, Pruner: mk()})
		if err != nil {
			t.Fatal(err)
		}
		run, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 9, Pruner: mk()})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesOracles(t, fmt.Sprintf("w=%d", workers), q, run, scalar, false)
	}
}
