package engine

import (
	"container/heap"
	"fmt"
	"sort"
	"strconv"

	"cheetah/internal/table"
)

// ExecDirect runs the query exactly on a single node — the ground truth
// both execution paths must reproduce, and the completion step the master
// applies to pruned data.
func ExecDirect(q *Query) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	switch q.Kind {
	case KindFilter:
		return execFilter(q, q.Table, allRows(q.Table))
	case KindDistinct:
		return execDistinct(q, q.Table, allRows(q.Table))
	case KindTopN:
		return execTopN(q, q.Table, allRows(q.Table))
	case KindGroupByMax:
		return execGroupByMax(q, q.Table, allRows(q.Table))
	case KindGroupBySum:
		return execGroupBySum(q, q.Table, allRows(q.Table))
	case KindHaving:
		return execHaving(q, q.Table, allRows(q.Table))
	case KindJoin:
		return execJoin(q, allRows(q.Table), allRows(q.Right))
	case KindSkyline:
		return execSkyline(q, q.Table, allRows(q.Table))
	default:
		return nil, fmt.Errorf("engine: unknown kind %v", q.Kind)
	}
}

// allRows returns the identity row-index list for t.
func allRows(t *table.Table) []int {
	rows := make([]int, t.NumRows())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// cellString renders one cell canonically.
func cellString(t *table.Table, col, row int) string {
	if t.Schema()[col].Type == table.Int64 {
		return strconv.FormatInt(t.Int64At(col, row), 10)
	}
	return t.StringAt(col, row)
}

// execFilter returns the rows of t (restricted to rows) matching the
// formula, projected to all columns — or the match count for CountOnly.
func execFilter(q *Query, t *table.Table, rows []int) (*Result, error) {
	cols := make([]int, len(q.Predicates))
	for i, p := range q.Predicates {
		cols[i] = t.Schema().MustIndex(p.Col)
	}
	// One predicate callback for the whole scan, reading the current row.
	var r int
	holds := func(v int) bool { return q.Predicates[v].Eval(t, cols[v], r) }
	count := 0
	var out [][]string
	for _, r = range rows {
		if !q.Formula.Eval(holds) {
			continue
		}
		count++
		if q.CountOnly {
			continue
		}
		row := make([]string, t.NumCols())
		for c := range row {
			row[c] = cellString(t, c, r)
		}
		out = append(out, row)
	}
	if q.CountOnly {
		return &Result{Columns: []string{"count"}, Rows: [][]string{{strconv.Itoa(count)}}}, nil
	}
	names := make([]string, t.NumCols())
	for i, d := range t.Schema() {
		names[i] = d.Name
	}
	return sortedResult(names, out), nil
}

// execDistinct returns the distinct value tuples of the requested columns.
func execDistinct(q *Query, t *table.Table, rows []int) (*Result, error) {
	cols := make([]int, len(q.DistinctCols))
	for i, c := range q.DistinctCols {
		cols[i] = t.Schema().MustIndex(c)
	}
	seen := map[string][]string{}
	for _, r := range rows {
		row := make([]string, len(cols))
		for i, c := range cols {
			row[i] = cellString(t, c, r)
		}
		seen[rowKeyOf(row)] = row
	}
	res := &Result{Columns: append([]string(nil), q.DistinctCols...)}
	for _, row := range seen {
		res.Rows = append(res.Rows, row)
	}
	res.Sort()
	return res, nil
}

func rowKeyOf(row []string) string {
	k := ""
	for _, c := range row {
		k += c + "\x00"
	}
	return k
}

// int64Heap is a min-heap used by execTopN.
type int64Heap []int64

func (h int64Heap) Len() int           { return len(h) }
func (h int64Heap) Less(i, j int) bool { return h[i] < h[j] }
func (h int64Heap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *int64Heap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *int64Heap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// push adds v to the heap (sift-up), replicating container/heap.Push for
// the master's int64 N-heap without the interface boxing.
func (h *int64Heap) push(v int64) {
	*h = append(*h, v)
	j := len(*h) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if (*h)[parent] <= (*h)[j] {
			break
		}
		(*h)[parent], (*h)[j] = (*h)[j], (*h)[parent]
		j = parent
	}
}

// offer admits v to the capacity-topN heap when it qualifies: a plain
// push while filling, a root replacement when v beats the current
// minimum, a no-op otherwise.
func (h *int64Heap) offer(v int64, topN int) {
	if len(*h) < topN {
		h.push(v)
	} else if v > (*h)[0] {
		(*h)[0] = v
		(*h).fixRoot()
	}
}

// fixRoot restores heap order after the root was replaced (sift-down),
// replicating container/heap.Fix(h, 0).
func (h int64Heap) fixRoot() {
	n := len(h)
	j := 0
	for {
		l, r := 2*j+1, 2*j+2
		small := j
		if l < n && h[l] < h[small] {
			small = l
		}
		if r < n && h[r] < h[small] {
			small = r
		}
		if small == j {
			return
		}
		h[j], h[small] = h[small], h[j]
		j = small
	}
}

// execTopN returns the N largest ORDER BY values (the paper's TOP N is
// served by the master with an N-sized heap, §8.3).
func execTopN(q *Query, t *table.Table, rows []int) (*Result, error) {
	col := t.Schema().MustIndex(q.OrderCol)
	h := &int64Heap{}
	heap.Init(h)
	for _, r := range rows {
		v := t.Int64At(col, r)
		if h.Len() < q.N {
			heap.Push(h, v)
		} else if v > (*h)[0] {
			(*h)[0] = v
			heap.Fix(h, 0)
		}
	}
	vals := make([]int64, h.Len())
	copy(vals, *h)
	sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
	res := &Result{Columns: []string{q.OrderCol}}
	for _, v := range vals {
		res.Rows = append(res.Rows, []string{strconv.FormatInt(v, 10)})
	}
	res.Sort()
	return res, nil
}

// execGroupByMax returns (key, MAX(val)) per key.
func execGroupByMax(q *Query, t *table.Table, rows []int) (*Result, error) {
	kc := t.Schema().MustIndex(q.KeyCol)
	vc := t.Schema().MustIndex(q.AggCol)
	best := map[string]int64{}
	for _, r := range rows {
		k := cellString(t, kc, r)
		v := t.Int64At(vc, r)
		if cur, ok := best[k]; !ok || v > cur {
			best[k] = v
		}
	}
	res := &Result{Columns: []string{q.KeyCol, "max(" + q.AggCol + ")"}}
	for k, v := range best {
		res.Rows = append(res.Rows, []string{k, strconv.FormatInt(v, 10)})
	}
	res.Sort()
	return res, nil
}

// execGroupBySum returns (key, SUM(val)) per key.
func execGroupBySum(q *Query, t *table.Table, rows []int) (*Result, error) {
	kc := t.Schema().MustIndex(q.KeyCol)
	vc := t.Schema().MustIndex(q.AggCol)
	sums := map[string]int64{}
	for _, r := range rows {
		sums[cellString(t, kc, r)] += t.Int64At(vc, r)
	}
	res := &Result{Columns: []string{q.KeyCol, "sum(" + q.AggCol + ")"}}
	for k, v := range sums {
		res.Rows = append(res.Rows, []string{k, strconv.FormatInt(v, 10)})
	}
	res.Sort()
	return res, nil
}

// execHaving returns the keys whose SUM(val) exceeds the threshold.
func execHaving(q *Query, t *table.Table, rows []int) (*Result, error) {
	kc := t.Schema().MustIndex(q.KeyCol)
	vc := t.Schema().MustIndex(q.AggCol)
	sums := map[string]int64{}
	for _, r := range rows {
		sums[cellString(t, kc, r)] += t.Int64At(vc, r)
	}
	res := &Result{Columns: []string{q.KeyCol}}
	for k, v := range sums {
		if v > q.Threshold {
			res.Rows = append(res.Rows, []string{k})
		}
	}
	res.Sort()
	return res, nil
}

// execJoin returns, per joined key, the key and the number of row pairs —
// a canonical summary of the inner-join output that stays comparable at
// benchmark scale.
func execJoin(q *Query, leftRows, rightRows []int) (*Result, error) {
	return sortedResult(joinColumns(q), joinPairs(q, leftRows, rightRows)), nil
}

// joinColumns names execJoin's result columns.
func joinColumns(q *Query) []string { return []string{q.LeftKey, "pairs"} }

// joinPairs returns execJoin's rows, unsorted: per key present on both
// sides (restricted to the given rows), the key and its pair count.
// Sharded joins concatenate these per shard and sort once. Keys are
// compared in their canonical text form; the side with fewer rows is
// indexed and the other only probes the index.
func joinPairs(q *Query, leftRows, rightRows []int) [][]string {
	lc := q.Table.Schema().MustIndex(q.LeftKey)
	rc := q.Right.Schema().MustIndex(q.RightKey)
	small, st, sc := leftRows, q.Table, lc
	big, bt, bc := rightRows, q.Right, rc
	if len(rightRows) < len(leftRows) {
		small, st, sc, big, bt, bc = rightRows, q.Right, rc, leftRows, q.Table, lc
	}
	// counts[2i] and counts[2i+1] are key i's row counts on the indexed
	// and the probing side.
	idx := make(map[string]int, len(small))
	keys := make([]string, 0, len(small))
	counts := make([]int, 0, 2*len(small))
	for _, r := range small {
		k := cellString(st, sc, r)
		i, ok := idx[k]
		if !ok {
			i = len(keys)
			idx[k] = i
			keys = append(keys, k)
			counts = append(counts, 0, 0)
		}
		counts[2*i]++
	}
	for _, r := range big {
		if i, ok := idx[cellString(bt, bc, r)]; ok {
			counts[2*i+1]++
		}
	}
	rows := make([][]string, 0, len(keys))
	cells := make([]string, 0, 2*len(keys))
	for i, k := range keys {
		if n := counts[2*i] * counts[2*i+1]; n > 0 {
			cells = append(cells, k, strconv.Itoa(n))
			rows = append(rows, cells[len(cells)-2:len(cells):len(cells)])
		}
	}
	return rows
}

// execSkyline returns the distinct coordinate tuples on the Pareto curve
// (all dimensions maximized).
func execSkyline(q *Query, t *table.Table, rows []int) (*Result, error) {
	cols := make([]int, len(q.SkylineCols))
	for i, c := range q.SkylineCols {
		cols[i] = t.Schema().MustIndex(c)
	}
	// Collect distinct points first: the skyline is a set of points.
	type pt struct {
		coords []int64
	}
	seen := map[string]pt{}
	for _, r := range rows {
		coords := make([]int64, len(cols))
		key := ""
		for i, c := range cols {
			coords[i] = t.Int64At(c, r)
			key += strconv.FormatInt(coords[i], 10) + "\x00"
		}
		seen[key] = pt{coords: coords}
	}
	points := make([]pt, 0, len(seen))
	for _, p := range seen {
		points = append(points, p)
	}
	// Sort by descending coordinate sum so dominators come early; then an
	// O(n·s) sweep against the accepted skyline keeps it near-linear for
	// realistic data.
	sort.Slice(points, func(i, j int) bool {
		si, sj := int64(0), int64(0)
		for _, v := range points[i].coords {
			si += v
		}
		for _, v := range points[j].coords {
			sj += v
		}
		return si > sj
	})
	var sky []pt
	for _, p := range points {
		dominated := false
		for _, s := range sky {
			if dominatesInt64(s.coords, p.coords) {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, p)
		}
	}
	res := &Result{Columns: append([]string(nil), q.SkylineCols...)}
	for _, p := range sky {
		row := make([]string, len(p.coords))
		for i, v := range p.coords {
			row[i] = strconv.FormatInt(v, 10)
		}
		res.Rows = append(res.Rows, row)
	}
	res.Sort()
	return res, nil
}

// dominatesInt64 reports a ≥ b in every dimension with a ≠ b allowed —
// standard skyline dominance for maximization.
func dominatesInt64(a, b []int64) bool {
	for i := range a {
		if b[i] > a[i] {
			return false
		}
	}
	return true
}
