package engine

import (
	"fmt"
	"reflect"
	"testing"

	"cheetah/internal/table"
)

// havingCollisionTable is a key column whose rows pass 2 sees under the
// fabricated fingerprints fps: keys 1 and 2 share fingerprint 7, key 3
// has fingerprint 9, and key 4's fingerprint 4 is not a candidate.
func havingCollisionTable(t *testing.T, typ table.Type) (tb *table.Table, fps []uint64) {
	t.Helper()
	tb = table.MustNew(table.Schema{{Name: "k", Type: typ}, {Name: "v", Type: table.Int64}})
	rows := []struct {
		key string
		v   int64
		fp  uint64
	}{
		{"1", 5, 7}, {"2", 11, 7}, {"1", 3, 7}, {"3", 100, 9}, {"2", -2, 7}, {"4", 50, 4},
	}
	for _, r := range rows {
		var key any = "key" + r.key
		if typ == table.Int64 {
			key = int64(r.key[0]-'0') * -1000
		}
		if err := tb.AppendRow(key, r.v); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, r.fp)
	}
	return tb, fps
}

// TestHavingPass2CollidingFingerprints drives the slot aggregation
// directly: two different keys sharing one fingerprint are summed apart
// (the slot keeps its representative, the other key overflows by key
// string), both keys' rows count as re-streamed, and a split of the rows
// into two parts merges by slot index to the same sums.
func TestHavingPass2CollidingFingerprints(t *testing.T) {
	for _, typ := range []table.Type{table.String, table.Int64} {
		tb, fps := havingCollisionTable(t, typ)
		key := accessorFor(tb, 0)
		vals := tb.Int64Col(1)
		cand := newCandTable(typ == table.String)
		cand.add(7, &key, 0) // representative: key 1
		cand.add(9, &key, 3) // representative: key 3
		cand.add(7, &key, 1) // already a candidate: key 1 stays
		name := func(r int) string { return cellString(tb, 0, r) }

		hs := fusedHavingPass2(key, vals, fps, cand)
		if hs.resent != 5 {
			t.Fatalf("%v: resent %d, want 5 (both colliding keys' rows, not key 4's)", typ, hs.resent)
		}
		if got, want := hs.slots, []int64{8, 100}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: slot sums %v, want %v", typ, got, want)
		}
		if got, want := hs.overflow, map[string]int64{name(1): 9}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: overflow %v, want %v", typ, got, want)
		}
		// Sums 8, 9 and 100 against threshold 8: the colliding key 2
		// qualifies on its own sum, key 1 (exactly 8) does not.
		res := hs.result("k", cand, 8)
		want := sortedResult([]string{"k"}, [][]string{{name(1)}, {name(3)}})
		if !res.Equal(want) {
			t.Fatalf("%v: result %v, want %v", typ, res.Rows, want.Rows)
		}

		// The sharded merge: each part sums against the same table.
		merged := havingSums{slots: make([]int64, cand.size())}
		for _, part := range [][2]int{{0, 2}, {2, len(fps)}} {
			sub, err := tb.View(part[0], part[1])
			if err != nil {
				t.Fatal(err)
			}
			merged.merge(fusedHavingPass2(accessorFor(sub, 0), sub.Int64Col(1), fps[part[0]:part[1]], cand))
		}
		if !reflect.DeepEqual(merged, hs) {
			t.Fatalf("%v: merged parts %+v, whole %+v", typ, merged, hs)
		}
	}
}

// havingIntKeyQuery is HAVING over an int64 key column with negative
// summands (which the sketch forwards untouched) and a threshold that
// admits only some keys.
func havingIntKeyQuery(t *testing.T, rows int, seed uint64) *Query {
	t.Helper()
	tb := table.MustNew(table.Schema{{Name: "k", Type: table.Int64}, {Name: "v", Type: table.Int64}})
	s := seed
	next := func(mod uint64) int64 {
		s = s*6364136223846793005 + 1442695040888963407
		return int64((s >> 33) % mod)
	}
	for i := 0; i < rows; i++ {
		// Keys span negative and positive values; one summand in eight
		// is negative.
		k := next(61) - 30
		v := next(400)
		if next(8) == 0 {
			v = -v
		}
		if err := tb.AppendRow(k, v); err != nil {
			t.Fatal(err)
		}
	}
	return &Query{Kind: KindHaving, Table: tb, KeyCol: "k", AggCol: "v", Threshold: int64(rows) * 3}
}

// TestHavingIntKeyMatchesOracles pins the int64-key HAVING completion on
// every engine path: fused at 1 and 3 workers (Results == ExecDirect,
// Traffic/Stats == scalar) and sharded over 1–3 shards, contiguous and
// hash-sharded.
func TestHavingIntKeyMatchesOracles(t *testing.T) {
	for _, seed := range []uint64{1, 0xfeed} {
		q := havingIntKeyQuery(t, 4000, seed)
		direct, err := ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(direct.Rows); n == 0 || n >= 61 {
			t.Fatalf("seed %d: threshold admits %d of 61 keys, want some", seed, n)
		}
		for _, workers := range []int{1, 3} {
			label := fmt.Sprintf("int-key having seed=%d w=%d", seed, workers)
			scalar, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: seed, Scalar: true})
			if err != nil {
				t.Fatal(err)
			}
			if !scalar.Result.Equal(direct) {
				t.Fatalf("%s: scalar result diverges from ExecDirect", label)
			}
			run, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesOracles(t, label, q, run, scalar, false)
		}
		for _, shards := range []int{1, 2, 3} {
			for _, strat := range []ShardStrategy{ShardAuto, ShardHash} {
				run, err := ExecSharded(q, ShardedOptions{Shards: shards, Workers: 2, Seed: seed, Strategy: strat})
				if err != nil {
					t.Fatalf("seed %d shards=%d strategy=%v: %v", seed, shards, strat, err)
				}
				assertShardedRun(t, fmt.Sprintf("int-key having seed=%d strategy=%v", seed, strat), shards, run, direct)
			}
		}
	}
}
