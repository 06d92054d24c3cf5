package prune

import (
	"testing"

	"cheetah/internal/boolexpr"
	"cheetah/internal/cache"
	"cheetah/internal/hashutil"
	"cheetah/internal/switchsim"
)

// makeStream builds a deterministic pseudo-random column-major stream of
// n entries with the given column value ranges (range 0 keeps the column
// zero, e.g. a side marker filled by the caller).
func makeStream(n int, ranges []uint64, seed uint64) [][]uint64 {
	cols := make([][]uint64, len(ranges))
	for i := range cols {
		cols[i] = make([]uint64, n)
	}
	s := seed
	for j := 0; j < n; j++ {
		for i, r := range ranges {
			if r == 0 {
				continue
			}
			s = hashutil.SplitMix64(s)
			cols[i][j] = s % r
		}
	}
	return cols
}

// runScalar feeds the stream entry by entry through Process.
func runScalar(p Pruner, cols [][]uint64, n int) []switchsim.Decision {
	dec := make([]switchsim.Decision, n)
	vals := make([]uint64, len(cols))
	for j := 0; j < n; j++ {
		for i := range cols {
			vals[i] = cols[i][j]
		}
		dec[j] = p.Process(vals)
	}
	return dec
}

// fusedStep returns the per-entry transition the engine's fused loops
// drive for p — its Fused* entry point, or Process itself for the
// programs the loops call directly — reporting true when the entry is
// pruned. Stats are not touched; the loops deposit them through
// AddStats.
func fusedStep(t *testing.T, p Pruner) func(vals []uint64) bool {
	t.Helper()
	switch p := p.(type) {
	case *Filter:
		preds, tt := p.FusedSpec()
		return func(vals []uint64) bool {
			var idx uint32
			for i := range preds {
				if preds[i].Eval(vals) {
					idx |= 1 << uint(i)
				}
			}
			return !tt.Lookup(idx)
		}
	case *Distinct:
		m := p.FusedMatrix()
		return func(vals []uint64) bool { return m.Insert(vals[0]) }
	case *DetTopN:
		return func(vals []uint64) bool { return p.FusedOffer(int64(vals[0])) }
	case *GroupBy:
		m, neg := p.FusedMatrix()
		return func(vals []uint64) bool {
			v := int64(vals[1])
			if neg {
				v = -v
			}
			return m.Offer(vals[0], v)
		}
	case *Having:
		return func(vals []uint64) bool { return p.FusedOffer(vals[0], int64(vals[1])) }
	case *Join:
		fa, fb := p.FusedFilters()
		return func(vals []uint64) bool {
			own, other := fa, fb
			if JoinSide(vals[0]) == SideB {
				own, other = fb, fa
			}
			switch {
			case p.Phase() == PhaseBuild && p.Asymmetric():
				fa.Add(vals[1])
				return false
			case p.Phase() == PhaseBuild:
				own.Add(vals[1])
				return true
			case p.Asymmetric():
				return !fa.Contains(vals[1])
			default:
				return !other.Contains(vals[1])
			}
		}
	}
	t.Fatalf("no fused transition for %T", p)
	return nil
}

// runFused feeds the same stream through the fused per-entry
// transitions in uneven chunks, one reused packet buffer as the fused
// loops keep, depositing each chunk's counters through AddStats — so
// chunk-boundary state carry-over is exercised.
func runFused(t *testing.T, p Pruner, cols [][]uint64, n int) []switchsim.Decision {
	t.Helper()
	step := fusedStep(t, p)
	add := p.(interface {
		AddStats(processed, pruned uint64)
	})
	dec := make([]switchsim.Decision, n)
	vals := make([]uint64, len(cols))
	lo := 0
	for _, hi := range []int{1, 7, 64, 1000, n} {
		hi = min(hi, n)
		if hi <= lo {
			continue
		}
		pruned := uint64(0)
		for j := lo; j < hi; j++ {
			for i := range cols {
				vals[i] = cols[i][j]
			}
			if step(vals) {
				dec[j] = switchsim.Prune
				pruned++
			} else {
				dec[j] = switchsim.Forward
			}
		}
		add.AddStats(uint64(hi-lo), pruned)
		lo = hi
	}
	return dec
}

func compareRuns(t *testing.T, name string, scalar, fused Pruner, cols [][]uint64, n int) {
	t.Helper()
	ds := runScalar(scalar, cols, n)
	df := runFused(t, fused, cols, n)
	for j := 0; j < n; j++ {
		if ds[j] != df[j] {
			t.Fatalf("%s: entry %d: scalar=%v fused=%v", name, j, ds[j], df[j])
		}
	}
	if scalar.Stats() != fused.Stats() {
		t.Fatalf("%s: stats diverge: scalar=%+v fused=%+v", name, scalar.Stats(), fused.Stats())
	}
}

func TestBatchMatchesScalarFilter(t *testing.T) {
	mk := func() Pruner {
		f, err := NewFilter(FilterConfig{
			Predicates: []Predicate{
				{ValIdx: 0, Op: OpGT, Const: 500},
				{ValIdx: 1, Op: OpLE, Const: 100},
				{ValIdx: 2, Precomputed: true},
			},
			Formula: boolexpr.Or{boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}}, boolexpr.Leaf{V: 2}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	cols := makeStream(5000, []uint64{1000, 200, 2}, 0xf1)
	compareRuns(t, "filter", mk(), mk(), cols, 5000)
}

func TestBatchMatchesScalarDistinct(t *testing.T) {
	for _, pol := range []cache.Policy{cache.FIFO, cache.LRU} {
		mk := func() Pruner {
			d, err := NewDistinct(DistinctConfig{Rows: 64, Cols: 2, Policy: pol, Seed: 0xd1})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		cols := makeStream(5000, []uint64{300}, 0xd2)
		compareRuns(t, "distinct-"+pol.String(), mk(), mk(), cols, 5000)
	}
}

func TestBatchMatchesScalarDetTopN(t *testing.T) {
	mk := func() Pruner {
		d, err := NewDetTopN(DetTopNConfig{N: 50, Thresholds: 4})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cols := makeStream(5000, []uint64{1 << 20}, 0x71)
	compareRuns(t, "topn-det", mk(), mk(), cols, 5000)
}

// fusedRandDecisions runs the fused TOP N transition over vals in the
// given chunk lengths, reserving each chunk's counter-stream positions
// with its own FusedRandState call as the engine's span loop does.
func fusedRandDecisions(p *RandTopN, vals []uint64, chunks []int) []switchsim.Decision {
	dec := make([]switchsim.Decision, 0, len(vals))
	lo := 0
	for _, c := range chunks {
		hi := min(lo+c, len(vals))
		m, d, base, pos := p.FusedRandState(hi - lo)
		mins := m.Mins()
		pruned := uint64(0)
		for j := lo; j < hi; j++ {
			row := int(hashutil.ReduceFull(hashutil.Mix64(base+pos*FusedRandGolden), d))
			pos++
			v := int64(vals[j])
			if mn := mins[row]; v > mn || mn == cache.MinSentinel {
				m.InsertFull(row, v)
				dec = append(dec, switchsim.Forward)
			} else {
				dec = append(dec, switchsim.Prune)
				pruned++
			}
		}
		p.AddStats(uint64(hi-lo), pruned)
		lo = hi
	}
	return dec
}

// TestBatchMatchesScalarRandTopN: randomized TOP N's fused decisions
// deviate from Process by design (a counter-indexed RNG stream), so the
// pin is the stream's contiguity: cutting a pass into uneven chunks —
// as the engine does at chunk boundaries and across deltas — yields
// exactly the decisions and stats of one uncut pass.
func TestBatchMatchesScalarRandTopN(t *testing.T) {
	mk := func() *RandTopN {
		r, err := NewRandTopN(RandTopNConfig{N: 50, Rows: 32, Cols: 4, Seed: 0x72})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	vals := makeStream(5000, []uint64{1 << 20}, 0x73)[0]
	whole, cut := mk(), mk()
	dw := fusedRandDecisions(whole, vals, []int{len(vals)})
	dc := fusedRandDecisions(cut, vals, []int{1, 6, 57, 936, 4000})
	for j := range dw {
		if dw[j] != dc[j] {
			t.Fatalf("entry %d: uncut=%v cut=%v", j, dw[j], dc[j])
		}
	}
	if whole.Stats() != cut.Stats() {
		t.Fatalf("stats diverge: uncut=%+v cut=%+v", whole.Stats(), cut.Stats())
	}
	if whole.Stats().Pruned == 0 {
		t.Fatal("fused TOP N pruned nothing; test is vacuous")
	}
}

func TestBatchMatchesScalarGroupBy(t *testing.T) {
	for _, min := range []bool{false, true} {
		mk := func() Pruner {
			g, err := NewGroupBy(GroupByConfig{Rows: 32, Cols: 4, Min: min, Seed: 0x91})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		cols := makeStream(5000, []uint64{200, 1 << 16}, 0x92)
		compareRuns(t, "groupby", mk(), mk(), cols, 5000)
	}
}

func TestBatchMatchesScalarHaving(t *testing.T) {
	for _, agg := range []HavingAgg{HavingSum, HavingCount} {
		mk := func() Pruner {
			h, err := NewHaving(HavingConfig{Agg: agg, Threshold: 1000, Rows: 3, CountersPerRow: 64, Seed: 0xa1})
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		cols := makeStream(5000, []uint64{150, 100}, 0xa2)
		compareRuns(t, "having-"+agg.String(), mk(), mk(), cols, 5000)
	}
}

func TestBatchMatchesScalarJoin(t *testing.T) {
	for _, asym := range []bool{false, true} {
		mk := func() *Join {
			j, err := NewJoin(JoinConfig{FilterBits: 1 << 12, Hashes: 3, Asymmetric: asym, Seed: 0xb1})
			if err != nil {
				t.Fatal(err)
			}
			return j
		}
		cols := makeStream(4000, []uint64{0, 500}, 0xb2)
		// Half side A, half side B.
		for j := 2000; j < 4000; j++ {
			cols[0][j] = uint64(SideB)
		}
		s, b := mk(), mk()
		// Build pass on the first half, probe pass on the second.
		compareRuns(t, "join-build", s, b, [][]uint64{cols[0][:2000], cols[1][:2000]}, 2000)
		s.StartProbe()
		b.StartProbe()
		compareRuns(t, "join-probe", s, b, [][]uint64{cols[0][2000:], cols[1][2000:]}, 2000)
	}
}

// TestBatchMatchesScalarSkyline: the fused SKYLINE loop calls Process
// directly with one packet buffer reused across entries, reading the
// carried id back out of it; decisions, carried ids and stats must match
// fresh per-entry packets.
func TestBatchMatchesScalarSkyline(t *testing.T) {
	for _, h := range []SkylineHeuristic{SkylineSum, SkylineAPH, SkylineBaseline} {
		mk := func() *Skyline {
			s, err := NewSkyline(SkylineConfig{Dims: 2, Points: 8, Heuristic: h})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		const n = 3000
		cols := makeStream(n, []uint64{1 << 16, 1 << 16, 1 << 30}, 0xc1)
		fresh, reused := mk(), mk()
		buf := make([]uint64, 3)
		for j := 0; j < n; j++ {
			vals := []uint64{cols[0][j], cols[1][j], cols[2][j]}
			copy(buf, vals)
			df, dr := fresh.Process(vals), reused.Process(buf)
			if df != dr || vals[2] != buf[2] {
				t.Fatalf("%v: entry %d: fresh=%v id %d, reused=%v id %d", h, j, df, vals[2], dr, buf[2])
			}
		}
		if fresh.Stats() != reused.Stats() {
			t.Fatalf("%v: stats diverge: fresh=%+v reused=%+v", h, fresh.Stats(), reused.Stats())
		}
	}
}

// TestBatchGroupBySumRewrite checks the packet rewriting contract the
// fused GROUP BY SUM loop relies on: ProcessEmit over one reused packet
// buffer emits the same evicted aggregates as over fresh packets, and
// absorbed state drains identically.
func TestBatchGroupBySumRewrite(t *testing.T) {
	mk := func() *GroupBySum {
		g, err := NewGroupBySum(GroupBySumConfig{Rows: 16, Cols: 2, Seed: 0xe1})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	const n = 5000
	cols := makeStream(n, []uint64{300, 1 << 10}, 0xe2)
	fresh, reused := mk(), mk()
	var buf [2]uint64
	forwarded := 0
	for j := 0; j < n; j++ {
		df, outF := fresh.ProcessEmit([]uint64{cols[0][j], cols[1][j]})
		buf[0], buf[1] = cols[0][j], cols[1][j]
		dr, outR := reused.ProcessEmit(buf[:])
		if df != dr {
			t.Fatalf("entry %d: fresh=%v reused=%v", j, df, dr)
		}
		if df == switchsim.Forward {
			forwarded++
			if outF[0] != outR[0] || outF[1] != outR[1] {
				t.Fatalf("entry %d: emitted fresh=%v reused=%v", j, outF, outR)
			}
		}
	}
	if forwarded == 0 {
		t.Fatal("nothing was emitted; test is vacuous")
	}
	fd, rd := fresh.Drain(), reused.Drain()
	if len(fd) != len(rd) {
		t.Fatalf("drain size: fresh=%d reused=%d", len(fd), len(rd))
	}
	for i := range fd {
		if fd[i][0] != rd[i][0] || fd[i][1] != rd[i][1] {
			t.Fatalf("drain %d: fresh=%v reused=%v", i, fd[i], rd[i])
		}
	}
	if fresh.Stats() != reused.Stats() {
		t.Fatalf("stats diverge: fresh=%+v reused=%+v", fresh.Stats(), reused.Stats())
	}
}
