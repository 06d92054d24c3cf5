package engine

import (
	"strings"
	"testing"

	"cheetah/internal/boolexpr"
	"cheetah/internal/prune"
	"cheetah/internal/table"
	"cheetah/internal/workload"
)

// ratingsTable builds Table 1(b) from the paper.
func ratingsTable(t *testing.T) *table.Table {
	t.Helper()
	tbl := table.MustNew(table.Schema{
		{Name: "name", Type: table.String},
		{Name: "taste", Type: table.Int64},
		{Name: "texture", Type: table.Int64},
	})
	rows := []struct {
		name           string
		taste, texture int64
	}{
		{"Pizza", 7, 5}, {"Cheetos", 8, 6}, {"Jello", 9, 4}, {"Burger", 5, 7}, {"Fries", 3, 3},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r.name, r.taste, r.texture); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// productsTable builds Table 1(a).
func productsTable(t *testing.T) *table.Table {
	t.Helper()
	tbl := table.MustNew(table.Schema{
		{Name: "name", Type: table.String},
		{Name: "seller", Type: table.String},
		{Name: "price", Type: table.Int64},
	})
	rows := []struct {
		name, seller string
		price        int64
	}{
		{"Burger", "McCheetah", 4}, {"Pizza", "Papizza", 7},
		{"Fries", "McCheetah", 2}, {"Jello", "JellyFish", 5},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r.name, r.seller, r.price); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"elbows", "e%s", true},
		{"elbows", "e%x", false},
		{"abc", "abc", true},
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "%b%", true},
		{"abc", "%", true},
		{"", "%", true},
		{"abc", "abcd", false},
		{"xaybzc", "x%y%z%", true},
		// _ matches exactly one byte.
		{"abc", "a_c", true},
		{"abc", "a_d", false},
		{"abc", "___", true},
		{"abc", "__", false},
		{"abc", "____", false},
		{"abc", "_bc", true},
		{"abc", "ab_", true},
		{"", "_", false},
		// _ and % combine.
		{"abc", "_%", true},
		{"abc", "%_", true},
		{"abc", "_%_", true},
		{"a", "_%_", false},
		{"elbows", "e_b%s", true},
		{"elbows", "e_x%s", false},
		{"abcdef", "a_c%e_", true},
		{"abcdef", "a_c%f_", false},
		// % backtracking past a shorter candidate match.
		{"aXbYb", "a%b", true},
		{"mississippi", "m%iss%ppi", true},
		{"mississippi", "m%iss%ppx", false},
		{"banana", "%a_a", true},
		// Empty string and empty pattern edges.
		{"", "", true},
		{"", "%%", true},
		{"a", "", false},
		{"", "a", false},
		// Literal '%' bytes in the data never bind a pattern '%': the
		// pattern wildcard stays a wildcard.
		{"a%bc", "a%", true},
		{"%xy", "%", true},
		{"a%b", "a%b", true},
		{"100%", "100%", true},
		{"a_b", "a_b", true},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.p); got != c.want {
			t.Errorf("MatchLike(%q,%q) = %v", c.s, c.p, got)
		}
	}
}

func TestDirectDistinctPaperExample(t *testing.T) {
	// §4.2: SELECT DISTINCT seller FROM Products →
	// (Papizza, McCheetah, JellyFish).
	q := &Query{Kind: KindDistinct, Table: productsTable(t), DistinctCols: []string{"seller"}}
	res, err := ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("distinct sellers = %v", res.Rows)
	}
}

func TestDirectSkylinePaperExample(t *testing.T) {
	// §4.4: SKYLINE OF taste, texture → (Cheetos, Jello, Burger) —
	// coordinate tuples (8,6), (9,4), (5,7).
	q := &Query{Kind: KindSkyline, Table: ratingsTable(t), SkylineCols: []string{"taste", "texture"}}
	res, err := ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"8\x006": false, "9\x004": false, "5\x007": false}
	if len(res.Rows) != len(want) {
		t.Fatalf("skyline = %v", res.Rows)
	}
	for _, row := range res.Rows {
		key := row[0] + "\x00" + row[1]
		if _, ok := want[key]; !ok {
			t.Fatalf("unexpected skyline point %v", row)
		}
	}
}

func TestDirectTopNPaperExample(t *testing.T) {
	// §4.3: TOP 3 ORDER BY taste → tastes 9, 8, 7.
	q := &Query{Kind: KindTopN, Table: ratingsTable(t), OrderCol: "taste", N: 3}
	res, err := ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, r := range res.Rows {
		got[r[0]] = true
	}
	for _, want := range []string{"9", "8", "7"} {
		if !got[want] {
			t.Fatalf("top-3 = %v", res.Rows)
		}
	}
}

func TestDirectHavingPaperExample(t *testing.T) {
	// §4.3: GROUP BY seller HAVING SUM(price) > 5 → McCheetah, Papizza.
	q := &Query{Kind: KindHaving, Table: productsTable(t), KeyCol: "seller", AggCol: "price", Threshold: 5}
	res, err := ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "McCheetah" || res.Rows[1][0] != "Papizza" {
		t.Fatalf("having = %v", res.Rows)
	}
}

func TestDirectJoinPaperExample(t *testing.T) {
	// §4.3: Products JOIN Ratings ON name — Cheetos has no match.
	q := &Query{
		Kind: KindJoin, Table: productsTable(t), Right: ratingsTable(t),
		LeftKey: "name", RightKey: "name",
	}
	res, err := ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("join keys = %v", res.Rows)
	}
	for _, row := range res.Rows {
		if row[0] == "Cheetos" {
			t.Fatal("Cheetos must not join")
		}
		if row[1] != "1" {
			t.Fatalf("pair count for %s = %s", row[0], row[1])
		}
	}
}

func TestDirectFilterPaperExample(t *testing.T) {
	// §4.1: (taste > 5) OR (texture > 4 AND name LIKE e%s) — Cheetos,
	// Pizza, Jello qualify via taste; Burger needs the LIKE and fails
	// (no e...s); Fries fails everything. Wait: "Burger" ends with 'r';
	// LIKE e%s requires starting e and ending s. None match the LIKE, so
	// matches are taste>5 only: Pizza, Cheetos, Jello.
	q := &Query{
		Kind:  KindFilter,
		Table: ratingsTable(t),
		Predicates: []FilterPred{
			{Col: "taste", Op: prune.OpGT, Const: 5},
			{Col: "texture", Op: prune.OpGT, Const: 4},
			{Col: "name", Like: "e%s"},
		},
		Formula: boolexpr.Or{boolexpr.Leaf{V: 0}, boolexpr.And{boolexpr.Leaf{V: 1}, boolexpr.Leaf{V: 2}}},
	}
	res, err := ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, row := range res.Rows {
		names[row[0]] = true
	}
	if len(names) != 3 || !names["Pizza"] || !names["Cheetos"] || !names["Jello"] {
		t.Fatalf("filter matches = %v", res.Rows)
	}
	// CountOnly collapses to a single count row.
	q.CountOnly = true
	res, err = ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "3" {
		t.Fatalf("count = %v", res.Rows)
	}
}

func TestQueryValidation(t *testing.T) {
	tbl := productsTable(t)
	bad := []*Query{
		{Kind: KindDistinct},
		{Kind: KindDistinct, Table: tbl},
		{Kind: KindDistinct, Table: tbl, DistinctCols: []string{"ghost"}},
		{Kind: KindTopN, Table: tbl, OrderCol: "price"},
		{Kind: KindTopN, Table: tbl, OrderCol: "ghost", N: 3},
		{Kind: KindGroupByMax, Table: tbl, KeyCol: "ghost", AggCol: "price"},
		{Kind: KindHaving, Table: tbl, KeyCol: "seller", AggCol: "price", Threshold: -2},
		{Kind: KindJoin, Table: tbl, LeftKey: "name", RightKey: "name"},
		{Kind: KindSkyline, Table: tbl, SkylineCols: []string{"price"}},
		{Kind: KindFilter, Table: tbl},
		{Kind: QueryKind(99), Table: tbl},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

// TestQueryValidationColumnTypes pins the type checks: String columns in
// Int64-typed roles (ORDER BY, aggregates, skyline dimensions, numeric
// comparisons) and Int64 columns under LIKE are rejected at Validate
// instead of panicking later in encode.
func TestQueryValidationColumnTypes(t *testing.T) {
	tbl := productsTable(t) // name, seller: String; price: Int64
	cases := []struct {
		label string
		q     *Query
		want  string
	}{
		{"topn string order col", &Query{Kind: KindTopN, Table: tbl, OrderCol: "seller", N: 3},
			`ORDER BY column "seller" is string`},
		{"groupby-max string agg col", &Query{Kind: KindGroupByMax, Table: tbl, KeyCol: "seller", AggCol: "name"},
			`aggregate column "name" is string`},
		{"groupby-sum string agg col", &Query{Kind: KindGroupBySum, Table: tbl, KeyCol: "seller", AggCol: "name"},
			`aggregate column "name" is string`},
		{"having string agg col", &Query{Kind: KindHaving, Table: tbl, KeyCol: "seller", AggCol: "name", Threshold: 1},
			`aggregate column "name" is string`},
		{"skyline string dim", &Query{Kind: KindSkyline, Table: tbl, SkylineCols: []string{"price", "seller"}},
			`skyline column "seller" is string`},
		{"comparison on string col", &Query{Kind: KindFilter, Table: tbl,
			Predicates: []FilterPred{{Col: "name", Op: prune.OpGT, Const: 1}},
			Formula:    boolexpr.Leaf{V: 0}},
			`comparison column "name" is string`},
		{"like on int col", &Query{Kind: KindFilter, Table: tbl,
			Predicates: []FilterPred{{Col: "price", Like: "4%"}},
			Formula:    boolexpr.Leaf{V: 0}},
			`LIKE column "price" is int64`},
	}
	for _, c := range cases {
		err := c.q.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.label)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.label, err, c.want)
		}
	}
	// Int64-typed columns in those roles stay accepted.
	good := []*Query{
		{Kind: KindTopN, Table: tbl, OrderCol: "price", N: 3},
		{Kind: KindGroupByMax, Table: tbl, KeyCol: "seller", AggCol: "price"},
		{Kind: KindGroupBySum, Table: tbl, KeyCol: "seller", AggCol: "price"},
		{Kind: KindHaving, Table: tbl, KeyCol: "seller", AggCol: "price", Threshold: 1},
	}
	for i, q := range good {
		if err := q.Validate(); err != nil {
			t.Errorf("good query %d rejected: %v", i, err)
		}
	}
}

// TestCheetahEqualsDirect is the central reproduction check: for every
// query kind, Q(A(D)) = Q(D) — the Cheetah path on pruned data matches
// the direct execution exactly.
func TestCheetahEqualsDirect(t *testing.T) {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(20_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	rank := workload.Rankings(20_000, 2)
	if err := rank.Shuffle(3); err != nil {
		t.Fatal(err)
	}
	orders, lineitem, err := workload.TPCHQ3(2_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	queries := map[string]*Query{
		"filter": {
			Kind:  KindFilter,
			Table: rank,
			Predicates: []FilterPred{
				{Col: "avgDuration", Op: prune.OpLT, Const: 10},
			},
			Formula:   boolexpr.Leaf{V: 0},
			CountOnly: true,
		},
		"filter-with-like": {
			Kind:  KindFilter,
			Table: uv,
			Predicates: []FilterPred{
				{Col: "adRevenue", Op: prune.OpGT, Const: 9000},
				{Col: "duration", Op: prune.OpGT, Const: 300},
				{Col: "userAgent", Like: "agent/00%"},
			},
			Formula: boolexpr.Or{boolexpr.Leaf{V: 0}, boolexpr.And{boolexpr.Leaf{V: 1}, boolexpr.Leaf{V: 2}}},
		},
		"distinct": {
			Kind: KindDistinct, Table: uv, DistinctCols: []string{"userAgent"},
		},
		"topn": {
			Kind: KindTopN, Table: uv, OrderCol: "adRevenue", N: 250,
		},
		"groupby-max": {
			Kind: KindGroupByMax, Table: uv, KeyCol: "userAgent", AggCol: "adRevenue",
		},
		"groupby-sum": {
			Kind: KindGroupBySum, Table: uv, KeyCol: "languageCode", AggCol: "adRevenue",
		},
		"having": {
			Kind: KindHaving, Table: uv, KeyCol: "languageCode", AggCol: "adRevenue", Threshold: 1_000_000,
		},
		"join": {
			Kind: KindJoin, Table: orders, Right: lineitem,
			LeftKey: "o_orderkey", RightKey: "l_orderkey",
		},
		"skyline": {
			Kind: KindSkyline, Table: rank, SkylineCols: []string{"pageRank", "avgDuration"},
		},
	}
	for name, q := range queries {
		q := q
		t.Run(name, func(t *testing.T) {
			want, err := ExecDirect(q)
			if err != nil {
				t.Fatal(err)
			}
			run, err := ExecCheetah(q, CheetahOptions{Workers: 5, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if !want.Equal(run.Result) {
				t.Fatalf("Cheetah result diverges from direct execution\nwant %d rows, got %d rows\nwant:\n%s\ngot:\n%s",
					len(want.Rows), len(run.Result.Rows), want, run.Result)
			}
			if run.Traffic.EntriesSent == 0 {
				t.Fatal("no traffic recorded")
			}
			if run.Traffic.Forwarded > run.Traffic.EntriesSent {
				t.Fatal("forwarded more than sent")
			}
		})
	}
}

func TestCheetahPrunesSubstantially(t *testing.T) {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(50_000, 7))
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{Kind: KindDistinct, Table: uv, DistinctCols: []string{"userAgent"}}
	run, err := ExecCheetah(q, CheetahOptions{Workers: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f := run.UnprunedFraction(); f > 0.4 {
		t.Fatalf("unpruned fraction %.3f too high for Zipfian agents", f)
	}
}

func TestCheetahWorkerCountInvariance(t *testing.T) {
	// Results must be identical regardless of partitioning.
	uv, err := workload.UserVisits(workload.DefaultUserVisits(10_000, 9))
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{Kind: KindGroupByMax, Table: uv, KeyCol: "languageCode", AggCol: "adRevenue"}
	want, err := ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 5, 8} {
		run, err := ExecCheetah(q, CheetahOptions{Workers: workers, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(run.Result) {
			t.Fatalf("workers=%d diverges", workers)
		}
	}
}

func TestCheetahCustomPruner(t *testing.T) {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(5_000, 11))
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{Kind: KindTopN, Table: uv, OrderCol: "adRevenue", N: 50}
	det, err := prune.NewDetTopN(prune.DetTopNConfig{N: 50, Thresholds: 4})
	if err != nil {
		t.Fatal(err)
	}
	run, err := ExecCheetah(q, CheetahOptions{Workers: 2, Pruner: det})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ExecDirect(q)
	if !want.Equal(run.Result) {
		t.Fatal("deterministic pruner diverges")
	}
	if run.PrunerName != "topn-det" {
		t.Fatalf("PrunerName = %q", run.PrunerName)
	}
}

// TestExecCheetahErrs is the pruned paths' error surface: each bad
// input errors, on every path it can reach, instead of running or
// panicking.
func TestExecCheetahErrs(t *testing.T) {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(2_000, 11))
	if err != nil {
		t.Fatal(err)
	}
	having := &Query{Kind: KindHaving, Table: uv, KeyCol: "languageCode", AggCol: "adRevenue", Threshold: 10}
	filter := &Query{Kind: KindFilter, Table: uv, Formula: boolexpr.Leaf{V: 0},
		Predicates: []FilterPred{{Col: "adRevenue", Op: prune.OpGT, Const: 500_000}}}
	topn := &Query{Kind: KindTopN, Table: uv, OrderCol: "adRevenue", N: 5}
	det := func() prune.Pruner {
		p, err := prune.NewDetTopN(prune.DetTopNConfig{N: 50, Thresholds: 4})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// A FILTER program reading a second wire value the 1-predicate query
	// never ships.
	wide := func() prune.Pruner {
		p, err := prune.NewFilter(prune.FilterConfig{
			Predicates: []prune.Predicate{{ValIdx: 0, Op: prune.OpGT, Const: 1}, {ValIdx: 1, Op: prune.OpLT, Const: 9}},
			Formula:    boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"mismatched pruner type", func() error {
			_, err := ExecCheetah(having, CheetahOptions{Pruner: det()})
			return err
		}, "having needs a *prune.Having"},
		{"filter program wider than the query", func() error {
			_, err := ExecCheetah(filter, CheetahOptions{Pruner: wide()})
			return err
		}, "reads wire value 1"},
		{"filter program wider than the query, scalar", func() error {
			_, err := ExecCheetah(filter, CheetahOptions{Pruner: wide(), Scalar: true})
			return err
		}, "reads wire value 1"},
		{"filter program wider than the query, sharded", func() error {
			_, err := ExecSharded(filter, ShardedOptions{Shards: 2, Pruners: []prune.Pruner{wide(), wide()}})
			return err
		}, "reads wire value 1"},
		{"flow without its program", func() error {
			_, err := ExecCheetah(topn, CheetahOptions{Flow: &countFlow{}})
			return err
		}, "needs its installed program"},
		{"sharded program of an unknown type", func() error {
			_, err := ExecSharded(topn, ShardedOptions{Shards: 2, Pruners: []prune.Pruner{opaquePruner{det()}, opaquePruner{det()}}})
			return err
		}, "needs a *prune.RandTopN or *prune.DetTopN"},
	}
	for _, c := range cases {
		err := c.run()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestCheetahJoinAsymmetric(t *testing.T) {
	orders, lineitem, err := workload.TPCHQ3(1_000, 13)
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{Kind: KindJoin, Table: orders, Right: lineitem, LeftKey: "o_orderkey", RightKey: "l_orderkey"}
	j, err := prune.NewJoin(prune.JoinConfig{FilterBits: 1 << 20, Hashes: 3, Asymmetric: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_ = j
	// The engine's symmetric two-pass driver is incompatible with the
	// asymmetric protocol; it must reject... actually the asymmetric
	// pruner forwards the whole build pass, which the driver treats as
	// survivors of side A — still correct, only less pruning on A.
	run, err := ExecCheetah(q, CheetahOptions{Workers: 1, Pruner: j})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ExecDirect(q)
	if !want.Equal(run.Result) {
		t.Fatal("asymmetric join diverges")
	}
}

func TestResultEqualAndString(t *testing.T) {
	a := &Result{Columns: []string{"x"}, Rows: [][]string{{"b"}, {"a"}}}
	b := &Result{Columns: []string{"x"}, Rows: [][]string{{"a"}, {"b"}}}
	a.Sort()
	b.Sort()
	if !a.Equal(b) {
		t.Fatal("sorted equal results differ")
	}
	if a.Equal(nil) {
		t.Fatal("Equal(nil)")
	}
	c := &Result{Columns: []string{"x"}, Rows: [][]string{{"a"}, {"c"}}}
	if a.Equal(c) {
		t.Fatal("different results equal")
	}
	if a.String() == "" {
		t.Fatal("String")
	}
}

func TestInterleaveCoversAllRows(t *testing.T) {
	tbl := table.MustNew(table.Schema{{Name: "v", Type: table.Int64}})
	const n = 103
	for i := 0; i < n; i++ {
		if err := tbl.AppendInt64Row(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 5, 7} {
		seen := make([]bool, n)
		count := 0
		interleave(tbl, workers, func(r int) {
			if seen[r] {
				t.Fatalf("row %d visited twice", r)
			}
			seen[r] = true
			count++
		})
		if count != n {
			t.Fatalf("workers=%d visited %d of %d", workers, count, n)
		}
	}
}
