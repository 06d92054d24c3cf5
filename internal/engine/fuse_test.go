package engine

import (
	"fmt"
	"testing"

	"cheetah/internal/boolexpr"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
)

// This file pins the compiled (fused) loops on the paths the suite in
// equiv_test.go does not drive: through a flow on a shared pipeline,
// sharded, with block skipping, and with caller-supplied programs. The
// contract under test: bit-identical Results to ExecDirect for every
// kind, and bit-identical Traffic and Stats to the scalar oracle for
// every kind except randomized TOP N, whose counter-indexed RNG draws
// different (equally sound) prune decisions than the scalar chain.

// TestFusedMatchesBatchExec runs every kind through a flow on a real
// shared pipeline — the serving layer's shape — and pins it to the
// oracles across worker counts and seeds.
func TestFusedMatchesBatchExec(t *testing.T) {
	tb := equivTable(t, 4000, 0x5eed)
	rt := equivTable(t, 1500, 0x0dd)
	for name, q := range equivQueries(tb, rt) {
		for _, workers := range []int{1, 3, 5} {
			for _, seed := range []uint64{1, 0xfeed, 42} {
				label := fmt.Sprintf("%s w=%d seed=%d", name, workers, seed)
				scalar, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: seed, Scalar: true})
				if err != nil {
					t.Fatalf("%s scalar: %v", label, err)
				}
				p, err := defaultProgram(q, seed)
				if err != nil {
					t.Fatal(err)
				}
				pl, err := switchsim.NewPipeline(switchsim.Tofino())
				if err != nil {
					t.Fatal(err)
				}
				if err := pl.Install(3, p); err != nil {
					t.Fatal(err)
				}
				flow := pipeDP{pl: pl, flowID: 3}
				run, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: seed, Pruner: p, Flow: flow})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if flow.Err() != nil {
					t.Fatalf("%s: healthy flow reports %v", label, flow.Err())
				}
				assertMatchesOracles(t, label, q, run, scalar, scalarTrafficExempt(name))
			}
		}
	}
}

func TestFusedMatchesDirect(t *testing.T) {
	tb := equivTable(t, 4000, 0x71)
	rt := equivTable(t, 1500, 0x72)
	for name, q := range equivQueries(tb, rt) {
		fused, err := ExecCheetah(q, CheetahOptions{Workers: 4, Seed: 0xfeed})
		if err != nil {
			t.Fatalf("%s fused: %v", name, err)
		}
		direct, err := ExecDirect(q)
		if err != nil {
			t.Fatalf("%s direct: %v", name, err)
		}
		if !fused.Result.Equal(direct) {
			t.Fatalf("%s: fused result wrong vs direct\ndirect:\n%s\nfused:\n%s", name, direct, fused.Result)
		}
	}
}

// TestFusedSharded runs the scatter/gather fabric on contiguous
// shards: identical Results to ExecDirect everywhere, and for the
// single-pass kinds each switch's stream equals a scalar run over its
// shard (randomized TOP N exempt; HAVING's first pass compared on
// forwards, since its exact second pass re-streams against the global
// candidates).
func TestFusedSharded(t *testing.T) {
	tb := equivTable(t, 4000, 0x81)
	rt := equivTable(t, 1500, 0x82)
	for name, q := range equivQueries(tb, rt) {
		for _, shards := range []int{2, 4} {
			run, err := ExecSharded(q, ShardedOptions{Shards: shards, Workers: 3, Seed: 0xfeed})
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			direct, err := ExecDirect(q)
			if err != nil {
				t.Fatal(err)
			}
			if !run.Result.Equal(direct) {
				t.Fatalf("%s shards=%d: sharded result wrong vs direct", name, shards)
			}
			if scalarTrafficExempt(name) || q.Kind == KindJoin {
				// JOIN shards are hash selections, pinned against
				// materialized shards in shard_select_test.go.
				continue
			}
			views, err := q.Table.Partition(shards)
			if err != nil {
				t.Fatal(err)
			}
			var stats prune.Stats
			for s, v := range views {
				qs := *q
				qs.Table = v
				p, err := defaultShardPruner(q, shards, 0xfeed)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := ExecCheetah(&qs, CheetahOptions{Workers: 3, Seed: 0xfeed, Scalar: true, Pruner: p})
				if err != nil {
					t.Fatalf("%s shard %d scalar: %v", name, s, err)
				}
				got := run.PerSwitch[s]
				if got.Forwarded != ref.Traffic.Forwarded ||
					(q.Kind != KindHaving && got.EntriesSent != ref.Traffic.EntriesSent) {
					t.Fatalf("%s shards=%d: switch %d traffic %+v, scalar shard %+v", name, shards, s, got, ref.Traffic)
				}
				stats.Processed += ref.Stats.Processed
				stats.Pruned += ref.Stats.Pruned
			}
			if run.Stats != stats {
				t.Fatalf("%s shards=%d: stats %+v, scalar shards %+v", name, shards, run.Stats, stats)
			}
		}
	}
}

// TestFusedSkip checks the fused loops compose with block skipping for
// the kinds with a sound block bound: the same Results with and without
// Skip, equal to ExecDirect, and the fused skip stats match the direct
// skipping scan's (TOP N's running threshold is looser on pruned
// survivors than the direct scan's exact one, so it is exempt).
func TestFusedSkip(t *testing.T) {
	tb := equivTable(t, 4096, 0x91)
	rt := equivTable(t, 1536, 0x92)
	if err := tb.BuildSkipIndex(128); err != nil {
		t.Fatal(err)
	}
	if err := rt.BuildSkipIndex(128); err != nil {
		t.Fatal(err)
	}
	queries := equivQueries(tb, rt)
	skipped := 0
	for _, name := range []string{"filter", "filter-count", "topn", "join"} {
		q := queries[name]
		skip, err := ExecCheetah(q, CheetahOptions{Workers: 3, Seed: 7, Skip: true})
		if err != nil {
			t.Fatalf("%s skip: %v", name, err)
		}
		plain, err := ExecCheetah(q, CheetahOptions{Workers: 3, Seed: 7})
		if err != nil {
			t.Fatalf("%s plain: %v", name, err)
		}
		if !skip.Result.Equal(plain.Result) {
			t.Fatalf("%s: skip changes fused result\nplain:\n%s\nskip:\n%s", name, plain.Result, skip.Result)
		}
		direct, directSkip, err := ExecDirectSkip(q)
		if err != nil {
			t.Fatalf("%s direct skip: %v", name, err)
		}
		if !skip.Result.Equal(direct) {
			t.Fatalf("%s: fused+skip result diverges from ExecDirect", name)
		}
		skipped += skip.Skipped.RowsSkipped
		if !scalarTrafficExempt(name) && skip.Skipped != directSkip {
			t.Fatalf("%s: skip stats diverge: direct %+v fused %+v", name, directSkip, skip.Skipped)
		}
	}
	if skipped == 0 {
		t.Fatal("no query skipped a row; test is vacuous")
	}
}

// TestFusedCustomPrunerFilter: a caller-supplied switch-resident filter
// program fuses too (the compiler accepts any *prune.Filter), and false
// positives still hit the master's exact re-check.
func TestFusedCustomPrunerFilter(t *testing.T) {
	tb := equivTable(t, 3000, 0x61)
	q := &Query{
		Kind:  KindFilter,
		Table: tb,
		Predicates: []FilterPred{
			{Col: "score", Op: prune.OpGT, Const: 50_000},
			{Col: "val", Op: prune.OpLT, Const: 500},
		},
		Formula: boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}},
	}
	mk := func() prune.Pruner {
		f, err := prune.NewFilter(prune.FilterConfig{
			Predicates: []prune.Predicate{{ValIdx: 0, Op: prune.OpGT, Const: 50_000}},
			Formula:    boolexpr.Leaf{V: 0},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	fused, err := ExecCheetah(q, CheetahOptions{Workers: 3, Seed: 5, Pruner: mk()})
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := ExecCheetah(q, CheetahOptions{Workers: 3, Seed: 5, Pruner: mk(), Scalar: true})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesOracles(t, "custom-pruner filter", q, fused, scalar, false)
}

// TestFusedTopNDeterminism: the counter RNG is a pure function of (seed,
// position), so repeated fused runs are bit-identical in Result, Traffic
// and Stats.
func TestFusedTopNDeterminism(t *testing.T) {
	tb := equivTable(t, 5003, 0xa1)
	q := &Query{Kind: KindTopN, Table: tb, OrderCol: "score", N: 25}
	for _, seed := range []uint64{1, 0xfeed} {
		a, err := ExecCheetah(q, CheetahOptions{Workers: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ExecCheetah(q, CheetahOptions{Workers: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if a.Traffic != b.Traffic || a.Stats != b.Stats || !a.Result.Equal(b.Result) {
			t.Fatalf("seed=%d: fused TOP N not deterministic: %+v vs %+v", seed, a.Traffic, b.Traffic)
		}
		direct, err := ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Result.Equal(direct) {
			t.Fatalf("seed=%d: fused TOP N result wrong vs direct", seed)
		}
	}
}

// TestFusedRandStatePosition pins the counter-stream bookkeeping: a
// standing program consumes one contiguous stream across passes
// (deltas), and Reset rewinds it with the rest of the pruner state.
func TestFusedRandStatePosition(t *testing.T) {
	p, err := prune.NewRandTopN(prune.LegacyRandTopNConfig(10, 1e-4, 99))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, pos := p.FusedRandState(100); pos != 0 {
		t.Fatalf("fresh pruner stream starts at %d, want 0", pos)
	}
	if _, _, _, pos := p.FusedRandState(7); pos != 100 {
		t.Fatalf("second pass starts at %d, want 100", pos)
	}
	_, d, base, pos := p.FusedRandState(1)
	if pos != 107 {
		t.Fatalf("third pass starts at %d, want 107", pos)
	}
	if d == 0 {
		t.Fatal("row modulus is 0")
	}
	p.Reset()
	_, d2, base2, pos2 := p.FusedRandState(1)
	if pos2 != 0 {
		t.Fatalf("stream position after Reset is %d, want 0", pos2)
	}
	if d2 != d || base2 != base {
		t.Fatalf("Reset changed the stream parameters: d %d→%d base %#x→%#x", d, d2, base, base2)
	}
}
