package table

// Sharding splits a table by *content* rather than by position: each row
// is routed to one of k shards by its value in a shard column. This is
// the storage half of the multi-switch fabric — the paper's deployment
// has each rack's ToR switch pruning its own workers' streams, so a
// table sharded across racks determines which switch sees which rows.
// Contiguous Partition stays the single-switch (and per-shard CWorker)
// split; ShardBy adds hash placement (co-locating equal keys, the
// property JOIN scatter/gather needs) and ShardByRange adds
// order-preserving range placement.
//
// Placement is computed as row selections: HashShardRows and
// RangeShardRows return, per shard, the ascending row ids of the rows
// routed there, which is all a query needs to scan a shard in place.
// ShardBy and ShardByRange materialize those selections as real tables
// (Gather) for callers that want standalone shards. Sharding is
// deterministic — the same table, column and k always produce the same
// shards, in the same row order.

import (
	"fmt"
	"sort"

	"cheetah/internal/hashutil"
)

// shardSeed fixes the hash-sharding placement function. It is a package
// constant, not a caller seed: two tables sharded on same-typed key
// columns must agree on placement (JOIN co-location) regardless of which
// query triggered the sharding.
const shardSeed = 0x5ca77e12c0ffee42

// ShardBy splits the table into k shards by hashing the named column:
// row r lands in shard hash(value) mod k. Equal values always land in
// the same shard, so two tables hash-sharded on same-typed key columns
// co-locate their matching keys shard-for-shard. k may exceed the row
// count (the excess shards are empty); k ≤ 0 is an error. Each shard is
// a copy of HashShardRows' selection.
func (t *Table) ShardBy(col string, k int) ([]*Table, error) {
	sel, err := t.HashShardRows(col, k)
	if err != nil {
		return nil, err
	}
	return t.gatherAll(sel)
}

// HashShardRows is ShardBy's placement as row selections: shard s holds
// the ascending row ids whose value in col hashes to s.
func (t *Table) HashShardRows(col string, k int) ([][]int, error) {
	ci := t.schema.Index(col)
	if ci < 0 {
		return nil, fmt.Errorf("table: unknown shard column %q", col)
	}
	if k <= 0 {
		return nil, fmt.Errorf("table: shard count %d must be positive", k)
	}
	assign := make([]int32, t.n)
	switch t.cols[ci].typ {
	case Int64:
		mixed := hashutil.Premix(shardSeed)
		for r, v := range t.Int64Col(ci) {
			assign[r] = int32(hashutil.ReduceFull(hashutil.HashPremixed(uint64(v), mixed), uint64(k)))
		}
	case String:
		for r, v := range t.StringCol(ci) {
			assign[r] = int32(hashutil.ReduceFull(hashutil.HashString64(v, shardSeed), uint64(k)))
		}
	}
	return selections(assign, k), nil
}

// ShardByRange splits the table into k shards by value ranges of the
// named Int64 column: boundaries are the column's k-quantiles, so the
// shards cover contiguous, non-overlapping value ranges of near-equal
// row count (heavily duplicated values can still skew shard sizes —
// equal values never split across shards). k may exceed the row count;
// k ≤ 0 and non-Int64 columns are errors. Each shard is a copy of
// RangeShardRows' selection.
func (t *Table) ShardByRange(col string, k int) ([]*Table, error) {
	sel, err := t.RangeShardRows(col, k)
	if err != nil {
		return nil, err
	}
	return t.gatherAll(sel)
}

// RangeShardRows is ShardByRange's placement as row selections: shard s
// holds the ascending row ids whose value in col falls in its range.
func (t *Table) RangeShardRows(col string, k int) ([][]int, error) {
	ci := t.schema.Index(col)
	if ci < 0 {
		return nil, fmt.Errorf("table: unknown shard column %q", col)
	}
	if k <= 0 {
		return nil, fmt.Errorf("table: shard count %d must be positive", k)
	}
	if t.cols[ci].typ != Int64 {
		return nil, fmt.Errorf("table: range-shard column %q is %v, need int64", col, t.cols[ci].typ)
	}
	vals := t.Int64Col(ci)
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// Upper (inclusive) bound of shards 0..k-2; the last shard is
	// unbounded. Quantile boundaries on the sorted column give near-equal
	// shard sizes for distinct-heavy columns.
	bounds := make([]int64, k-1)
	for i := range bounds {
		hi := (i + 1) * t.n / k
		if hi >= t.n {
			hi = t.n - 1
		}
		if t.n == 0 {
			bounds[i] = 0
			continue
		}
		bounds[i] = sorted[hi]
	}
	assign := make([]int32, t.n)
	for r, v := range vals {
		assign[r] = int32(sort.Search(len(bounds), func(i int) bool { return v <= bounds[i] }))
	}
	return selections(assign, k), nil
}

// selections turns per-row shard assignments into per-shard ascending
// row lists, each allocated at its exact size.
func selections(assign []int32, k int) [][]int {
	counts := make([]int, k)
	for _, s := range assign {
		counts[s]++
	}
	sel := make([][]int, k)
	for s := range sel {
		sel[s] = make([]int, 0, counts[s])
	}
	for r, s := range assign {
		sel[s] = append(sel[s], r)
	}
	return sel
}

// gatherAll materializes one table per selection.
func (t *Table) gatherAll(sel [][]int) ([]*Table, error) {
	out := make([]*Table, len(sel))
	for s, rows := range sel {
		var err error
		if out[s], err = t.Gather(rows); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Gather returns a new table with t's schema holding the given rows of
// t, in order. Project first to copy only the columns a reader needs.
func (t *Table) Gather(rows []int) (*Table, error) {
	g, err := New(t.schema)
	if err != nil {
		return nil, err
	}
	g.Grow(len(rows))
	return g, g.AppendRowsFrom(t, rows)
}
