package engine

import (
	"sort"
	"strings"
)

// compareStrings is strings.Compare under a local name so lexRows reads
// naturally; the standard implementation is intrinsified to a single
// byte-wise compare.
func compareStrings(a, b string) int { return strings.Compare(a, b) }

// lexRows orders rows element-wise without allocating per comparison.
// For cells without NUL this is exactly the order of the NUL-joined row
// key (Result.Sort checks for NUL and picks the sort).
type lexRows [][]string

func (r lexRows) Len() int      { return len(r) }
func (r lexRows) Swap(i, j int) { r[i], r[j] = r[j], r[i] }
func (r lexRows) Less(i, j int) bool {
	a, b := r[i], r[j]
	for k := 0; k < len(a) && k < len(b); k++ {
		if c := compareStrings(a[k], b[k]); c != 0 {
			return c < 0
		}
	}
	return len(a) < len(b)
}

// sortedResult builds a Result whose rows are in Result.Sort order.
func sortedResult(columns []string, rows [][]string) *Result {
	res := &Result{Columns: columns, Rows: rows}
	res.Sort()
	return res
}

// singleCellRows wraps already-sorted cell values as single-column
// result rows backed by one allocation.
func singleCellRows(cells []string) [][]string {
	rows := make([][]string, len(cells))
	for i := range cells {
		rows[i] = cells[i : i+1 : i+1]
	}
	return rows
}

// radixSortStrings sorts cells byte-wise lexicographically — the exact
// order of sort.Strings and Result.Sort for single-column rows — using
// MSD radix bucketing. Result sets routinely share long prefixes
// (generated keys, formatted integers), where comparison sorts pay
// O(prefix) per comparison; the radix pass walks each prefix byte once
// per level instead.
func radixSortStrings(cells []string) {
	if len(cells) < radixMinSize {
		sort.Strings(cells)
		return
	}
	scratch := make([]string, len(cells))
	radixSortRange(cells, scratch, 0)
}

// radixMinSize is the bucket size below which comparison sort wins.
const radixMinSize = 48

type radixFrame struct {
	lo, hi, depth int
}

// insertionSortSuffix sorts a small segment whose strings agree on the
// first depth bytes, comparing only the suffixes so the shared prefix is
// not re-scanned on every compare. Allocation-free.
func insertionSortSuffix(seg []string, depth int) {
	for i := 1; i < len(seg); i++ {
		s := seg[i]
		suf := s[depth:]
		j := i - 1
		for j >= 0 && seg[j][depth:] > suf {
			seg[j+1] = seg[j]
			j--
		}
		seg[j+1] = s
	}
}

func radixSortRange(cells, scratch []string, depth int) {
	stack := []radixFrame{{0, len(cells), depth}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		seg := cells[f.lo:f.hi]
		if len(seg) < radixMinSize {
			insertionSortSuffix(seg, f.depth)
			continue
		}
		// Bucket 0 holds strings that end at this depth; bucket b+1
		// holds byte value b.
		var counts [257]int
		for _, s := range seg {
			if len(s) <= f.depth {
				counts[0]++
			} else {
				counts[int(s[f.depth])+1]++
			}
		}
		if counts[0] == len(seg) {
			continue // all strings end here: segment is all-equal
		}
		// Single-bucket level (a shared prefix byte): descend one byte
		// without scattering.
		single := -1
		for b, c := range counts {
			if c == 0 {
				continue
			}
			if c == len(seg) {
				single = b
			}
			break
		}
		if single > 0 {
			stack = append(stack, radixFrame{f.lo, f.hi, f.depth + 1})
			continue
		}
		var offsets [257]int
		sum := 0
		for b := 0; b < 257; b++ {
			offsets[b] = sum
			sum += counts[b]
		}
		sub := scratch[:len(seg)]
		for _, s := range seg {
			b := 0
			if len(s) > f.depth {
				b = int(s[f.depth]) + 1
			}
			sub[offsets[b]] = s
			offsets[b]++
		}
		copy(seg, sub)
		// Recurse into buckets with ≥ 2 strings (bucket 0 is all-equal).
		pos := f.lo + counts[0]
		for b := 1; b < 257; b++ {
			if counts[b] > 1 {
				stack = append(stack, radixFrame{pos, pos + counts[b], f.depth + 1})
			}
			pos += counts[b]
		}
	}
}
