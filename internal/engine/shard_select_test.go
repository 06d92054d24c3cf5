package engine

import (
	"fmt"
	"runtime"
	"testing"

	"cheetah/internal/boolexpr"
	"cheetah/internal/prune"
	"cheetah/internal/table"
)

// materializedShards is the reference placement: standalone shard
// tables copied out by ShardBy/ShardByRange.
func materializedShards(t *testing.T, tb *table.Table, col string, k int, strat ShardStrategy) []*table.Table {
	t.Helper()
	var shards []*table.Table
	var err error
	if strat == ShardRange {
		shards, err = tb.ShardByRange(col, k)
	} else {
		shards, err = tb.ShardBy(col, k)
	}
	if err != nil {
		t.Fatal(err)
	}
	return shards
}

// TestSelectionShardsMatchMaterialized pins selection shards to the
// materialized shards they replace: every switch's Traffic and the
// summed Stats equal one-switch executions over ShardBy/ShardByRange
// copies with identical programs, the Result equals ExecDirect (and,
// for JOIN, the merged per-copy results), and hash/range shards skip
// nothing even when the parent carries a skip index.
func TestSelectionShardsMatchMaterialized(t *testing.T) {
	tb := equivTable(t, 4000, 0x5e1)
	rt := equivTable(t, 1300, 0x5e2)
	for _, x := range []*table.Table{tb, rt} {
		if err := x.BuildSkipIndex(256); err != nil {
			t.Fatal(err)
		}
	}
	queries := equivQueries(tb, rt)
	const seed, workers = 11, 3

	type shardCase struct {
		name  string
		q     *Query
		k     int
		strat ShardStrategy
		col   string // shard column of q.Table (and of q.Right for JOIN)
		newP  func() (prune.Pruner, error)
	}
	var cases []shardCase
	for _, k := range []int{2, 3} {
		for _, asym := range []bool{false, true} {
			asym := asym
			cases = append(cases, shardCase{
				name: fmt.Sprintf("join/k=%d/asym=%v", k, asym), q: queries["join"], k: k,
				strat: ShardHash, col: "name",
				newP: func() (prune.Pruner, error) {
					return prune.NewJoin(prune.JoinConfig{FilterBits: 1 << 14, Hashes: 3, Asymmetric: asym, Seed: seed})
				},
			})
		}
	}
	for _, name := range []string{"filter", "filter-count", "skyline"} {
		q := queries[name]
		for _, strat := range []ShardStrategy{ShardHash, ShardRange} {
			col, err := shardKeyCol(q)
			if err != nil {
				t.Fatal(err)
			}
			if strat == ShardRange && tb.ColumnType(tb.Schema().MustIndex(col)) != table.Int64 {
				continue
			}
			cases = append(cases, shardCase{
				name: fmt.Sprintf("%s/%v", name, strat), q: q, k: 3, strat: strat, col: col,
				newP: func() (prune.Pruner, error) { return DefaultPruner(q, seed) },
			})
		}
	}
	for _, c := range cases {
		name := c.name
		pruners := make([]prune.Pruner, c.k)
		for s := range pruners {
			var err error
			if pruners[s], err = c.newP(); err != nil {
				t.Fatal(err)
			}
		}
		run, err := ExecSharded(c.q, ShardedOptions{Shards: c.k, Workers: workers, Seed: seed,
			Pruners: pruners, Strategy: c.strat, Skip: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		direct, err := ExecDirect(c.q)
		if err != nil {
			t.Fatal(err)
		}
		assertShardedRun(t, name, c.k, run, direct)
		if run.Skipped != (SkipStats{}) {
			t.Fatalf("%s: selection shards skipped %+v", name, run.Skipped)
		}

		lefts := materializedShards(t, tb, c.col, c.k, c.strat)
		var rights []*table.Table
		if c.q.Kind == KindJoin {
			rights = materializedShards(t, rt, c.col, c.k, c.strat)
		}
		var stats prune.Stats
		var joined [][]string
		for s := 0; s < c.k; s++ {
			qs := *c.q
			qs.Table = lefts[s]
			if rights != nil {
				qs.Right = rights[s]
			}
			p, err := c.newP()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := ExecCheetah(&qs, CheetahOptions{Workers: workers, Seed: seed, Pruner: p, Scalar: true})
			if err != nil {
				t.Fatalf("%s shard %d reference: %v", name, s, err)
			}
			if run.PerSwitch[s] != ref.Traffic {
				t.Fatalf("%s shard %d: traffic %+v, materialized shard %+v", name, s, run.PerSwitch[s], ref.Traffic)
			}
			stats.Processed += ref.Stats.Processed
			stats.Pruned += ref.Stats.Pruned
			joined = append(joined, ref.Result.Rows...)
		}
		if run.Stats != stats {
			t.Fatalf("%s: stats %+v, materialized shards %+v", name, run.Stats, stats)
		}
		if c.q.Kind == KindJoin {
			if merged := sortedResult(joinColumns(c.q), joined); !run.Result.Equal(merged) {
				t.Fatalf("%s: result differs from the merged materialized shards", name)
			}
		}
	}
}

// TestShardedSkylineDisplacedPoint replays a stream in which a stored
// skyline point leaves the store without ever having been forwarded
// (see prune's displacedStream): every execution path must still return
// it.
func TestShardedSkylineDisplacedPoint(t *testing.T) {
	tb := table.MustNew(table.Schema{{Name: "x", Type: table.Int64}, {Name: "y", Type: table.Int64}})
	for _, p := range [][2]int64{{4, 4}, {4, 4}, {10, 0}, {0, 11}, {0, 12}} {
		if err := tb.AppendInt64Row(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	q := &Query{Kind: KindSkyline, Table: tb, SkylineCols: []string{"x", "y"}}
	direct, err := ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	newP := func() prune.Pruner {
		p, err := prune.NewSkyline(prune.SkylineConfig{Dims: 2, Points: 2, Heuristic: prune.SkylineSum})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, scalar := range []bool{false, true} {
		run, err := ExecCheetah(q, CheetahOptions{Scalar: scalar, Pruner: newP()})
		if err != nil {
			t.Fatal(err)
		}
		if !run.Result.Equal(direct) {
			t.Fatalf("scalar=%v: got\n%s\nwant\n%s", scalar, run.Result, direct)
		}
	}
	run, err := ExecSharded(q, ShardedOptions{Shards: 1, Pruners: []prune.Pruner{newP()}})
	if err != nil {
		t.Fatal(err)
	}
	if !run.Result.Equal(direct) {
		t.Fatalf("sharded: got\n%s\nwant\n%s", run.Result, direct)
	}
}

// allocatedBytes returns the bytes f allocates, averaged over runs after
// one warm-up call.
func allocatedBytes(t *testing.T, runs int, f func()) float64 {
	t.Helper()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestShardedAllocationBound pins the zero-copy merges: a sharded JOIN
// and a sharded FILTER allocate well under one copy of the input
// table's column storage (selections, survivor lists and pass scratch
// only), so reintroducing materialized shards or a gathered survivor
// table fails here.
func TestShardedAllocationBound(t *testing.T) {
	const rows = 60_000
	tb := equivTable(t, rows, 0xa11c)
	rt := table.MustNew(table.Schema{{Name: "name", Type: table.String}})
	for i := 0; i < 40; i++ {
		if err := rt.AppendRow(fmt.Sprintf("user%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// One copy of tb's column storage: 8 bytes per Int64 cell, one
	// string header per String cell.
	copyBytes := 0
	for c := range tb.Schema() {
		if tb.ColumnType(c) == table.Int64 {
			copyBytes += 8 * rows
		} else {
			copyBytes += 16 * rows
		}
	}
	join := &Query{Kind: KindJoin, Table: tb, Right: rt, LeftKey: "name", RightKey: "name"}
	// About half the rows pass, so a gathered survivor table would cost
	// half a copy on top of the survivor lists.
	filter := &Query{Kind: KindFilter, Table: tb, CountOnly: true, Formula: boolexpr.Leaf{V: 0},
		Predicates: []FilterPred{{Col: "score", Op: prune.OpGT, Const: 50_000}}}
	for _, c := range []struct {
		name  string
		q     *Query
		strat ShardStrategy
	}{
		{"join", join, ShardAuto},
		{"filter", filter, ShardAuto},
		{"filter-hash", filter, ShardHash},
	} {
		var runErr error
		got := allocatedBytes(t, 3, func() {
			// Small per-switch programs keep the Bloom filters out of
			// the measurement.
			var pruners []prune.Pruner
			if c.q.Kind == KindJoin {
				for s := 0; s < 2; s++ {
					p, err := prune.NewJoin(prune.JoinConfig{FilterBits: 1 << 10, Hashes: 3, Seed: 3})
					if err != nil {
						runErr = err
					}
					pruners = append(pruners, p)
				}
			}
			_, err := ExecSharded(c.q, ShardedOptions{Shards: 2, Workers: 2, Seed: 3,
				Pruners: pruners, Strategy: c.strat})
			if err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatalf("%s: %v", c.name, runErr)
		}
		// Materialized shards would add a whole copy, a gathered
		// survivor table half of one.
		if limit := 0.6 * float64(copyBytes); got > limit {
			t.Fatalf("%s: allocated %.0f bytes per query, limit %.0f (one table copy is %d)",
				c.name, got, limit, copyBytes)
		}
		t.Logf("%s: %.0f bytes per query (%.2f of a table copy)", c.name, got, got/float64(copyBytes))
	}
}
