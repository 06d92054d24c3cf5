// Package cheetah_test holds the top-level benchmark harness: one
// testing.B per paper table/figure (each regenerates its rows/series at
// a reduced scale; use cmd/cheetah-bench -scale 1 for paper scale), plus
// end-to-end micro-benchmarks of the pruning hot path.
package cheetah_test

import (
	"io"
	"testing"

	"cheetah"
	"cheetah/internal/bench"
	"cheetah/internal/boolexpr"
	"cheetah/internal/prune"
	"cheetah/internal/workload"
)

// benchOpts keeps figure regeneration inside benchmark time budgets.
func benchOpts() bench.Options {
	return bench.Options{Scale: 200, Seeds: 2, BaseSeed: 0xbe}
}

func BenchmarkTable2Resources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Hardware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5CompletionTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig5(nil, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6ScaleAndWorkers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Fig6(nil, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7NetAccelDrain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig7(nil, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig8(nil, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9MasterLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig9(nil, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10aDistinct(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10a(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10bSkyline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10b(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10cTopN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10c(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10dGroupBy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10d(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10eJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10e(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10fHaving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10f(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11PruningVsScale(b *testing.B) {
	o := benchOpts()
	panels := []func(bench.Options) (*bench.Figure, error){
		bench.Fig11a, bench.Fig11b, bench.Fig11c,
		bench.Fig11d, bench.Fig11e, bench.Fig11f,
	}
	for i := 0; i < b.N; i++ {
		for _, f := range panels {
			if _, err := f(o); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- end-to-end micro-benchmarks over the public API ---

func buildUserVisits(b *testing.B, rows int) *cheetah.Table {
	b.Helper()
	uv, err := workload.UserVisits(workload.DefaultUserVisits(rows, 1))
	if err != nil {
		b.Fatal(err)
	}
	return uv
}

// benchExecCheetah runs q through ExecCheetah with the given path and
// reports entries/s; the fused (default) and scalar variants of each
// benchmark share it so the speedup criteria are measurable in one
// build.
func benchExecCheetah(b *testing.B, q *cheetah.Query, rows int, opts cheetah.CheetahOptions) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Workers, opts.Seed = 5, uint64(i)
		if _, err := cheetah.ExecCheetah(q, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "entries/s")
}

func distinct100kQuery(b *testing.B) *cheetah.Query {
	uv := buildUserVisits(b, 100_000)
	return &cheetah.Query{Kind: cheetah.KindDistinct, Table: uv, DistinctCols: []string{"userAgent"}}
}

func topN100kQuery(b *testing.B) *cheetah.Query {
	uv := buildUserVisits(b, 100_000)
	return &cheetah.Query{Kind: cheetah.KindTopN, Table: uv, OrderCol: "adRevenue", N: 250}
}

func filter100kQuery(b *testing.B) *cheetah.Query {
	uv := buildUserVisits(b, 100_000)
	return &cheetah.Query{
		Kind:  cheetah.KindFilter,
		Table: uv,
		Predicates: []cheetah.FilterPred{
			{Col: "adRevenue", Op: prune.OpGT, Const: 500_000},
			{Col: "duration", Op: prune.OpLE, Const: 120},
		},
		Formula:   boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}},
		CountOnly: true,
	}
}

func BenchmarkExecCheetahDistinct100k(b *testing.B) {
	benchExecCheetah(b, distinct100kQuery(b), 100_000, cheetah.CheetahOptions{})
}

func BenchmarkExecCheetahDistinct100kScalar(b *testing.B) {
	benchExecCheetah(b, distinct100kQuery(b), 100_000, cheetah.CheetahOptions{Scalar: true})
}

func BenchmarkExecCheetahTopN100k(b *testing.B) {
	benchExecCheetah(b, topN100kQuery(b), 100_000, cheetah.CheetahOptions{})
}

func BenchmarkExecCheetahTopN100kScalar(b *testing.B) {
	benchExecCheetah(b, topN100kQuery(b), 100_000, cheetah.CheetahOptions{Scalar: true})
}

func BenchmarkExecCheetahFilter100k(b *testing.B) {
	benchExecCheetah(b, filter100kQuery(b), 100_000, cheetah.CheetahOptions{})
}

func BenchmarkExecCheetahFilter100kScalar(b *testing.B) {
	benchExecCheetah(b, filter100kQuery(b), 100_000, cheetah.CheetahOptions{Scalar: true})
}

// havingWireMixQuery is the wire-mix HAVING shape: 160k UserVisits rows,
// 100 languageCode keys, duration summands in 1..600 and a threshold of
// one per row, which every key clears — the sketch prunes little and the
// exact second pass re-streams most of the table.
func havingWireMixQuery(b *testing.B) *cheetah.Query {
	uv := buildUserVisits(b, 160_000)
	return &cheetah.Query{
		Kind: cheetah.KindHaving, Table: uv, KeyCol: "languageCode", AggCol: "duration",
		Threshold: int64(uv.NumRows()),
	}
}

// benchHaving times one execution path of the wire-mix HAVING query at
// one worker, reporting entries/s.
func benchHaving(b *testing.B, exec func(q *cheetah.Query, seed uint64) error) {
	b.Helper()
	q := havingWireMixQuery(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exec(q, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(q.Table.NumRows()*b.N)/b.Elapsed().Seconds(), "entries/s")
}

func BenchmarkExecCheetahHavingFused(b *testing.B) {
	benchHaving(b, func(q *cheetah.Query, seed uint64) error {
		_, err := cheetah.ExecCheetah(q, cheetah.CheetahOptions{Workers: 1, Seed: seed})
		return err
	})
}

func BenchmarkExecCheetahHavingSharded2(b *testing.B) {
	benchHaving(b, func(q *cheetah.Query, seed uint64) error {
		_, err := cheetah.ExecSharded(q, cheetah.ShardedOptions{Shards: 2, Workers: 1, Seed: seed})
		return err
	})
}

func BenchmarkExecCheetahHavingDirect(b *testing.B) {
	benchHaving(b, func(q *cheetah.Query, _ uint64) error {
		_, err := cheetah.ExecDirect(q)
		return err
	})
}

func BenchmarkExecDirectDistinct100k(b *testing.B) {
	uv := buildUserVisits(b, 100_000)
	q := &cheetah.Query{Kind: cheetah.KindDistinct, Table: uv, DistinctCols: []string{"userAgent"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cheetah.ExecDirect(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineSwitchProcess(b *testing.B) {
	pl, err := cheetah.NewPipeline(cheetah.Tofino())
	if err != nil {
		b.Fatal(err)
	}
	d, err := cheetah.NewDistinct(cheetah.DistinctConfig{Rows: 4096, Cols: 2, Policy: cheetah.LRU})
	if err != nil {
		b.Fatal(err)
	}
	if err := pl.Install(1, d); err != nil {
		b.Fatal(err)
	}
	vals := []uint64{0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals[0] = uint64(i % 65536)
		pl.Process(1, vals)
	}
}
