package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func checkSorted(t *testing.T, name string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: index %d: %q vs %q", name, i, got[i], want[i])
		}
	}
}

func TestRadixSortStringsMatchesSortStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string]func(n int) []string{
		"random": func(n int) []string {
			out := make([]string, n)
			for i := range out {
				b := make([]byte, rng.Intn(20))
				for j := range b {
					b[j] = byte(rng.Intn(256))
				}
				out[i] = string(b)
			}
			return out
		},
		"shared-prefix": func(n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = fmt.Sprintf("agent/%06d (Cheetah; rv:%d)", rng.Intn(n), i%7)
			}
			return out
		},
		"numeric": func(n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = fmt.Sprintf("%d", rng.Int63n(1<<40))
			}
			return out
		},
		"duplicates": func(n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = fmt.Sprintf("key-%02d", rng.Intn(10))
			}
			return out
		},
		"prefix-of-each-other": func(n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = "aaaaaaaaaa"[:rng.Intn(11)]
			}
			return out
		},
	}
	for name, gen := range cases {
		for _, n := range []int{0, 1, 5, 47, 48, 500, 5000} {
			in := gen(n)
			want := append([]string(nil), in...)
			sort.Strings(want)
			got := append([]string(nil), in...)
			radixSortStrings(got)
			checkSorted(t, fmt.Sprintf("%s/%d", name, n), got, want)
		}
	}
}

// TestLexRowsMatchesResultSort pins lexRows, the allocation-free sort
// behind Result.Sort, to the NUL-joined row-key order.
func TestLexRowsMatchesResultSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows := make([][]string, 300)
	for i := range rows {
		row := make([]string, 3)
		for c := range row {
			row[c] = fmt.Sprintf("v%02d", rng.Intn(12))
		}
		rows[i] = row
	}
	viaResult := &Result{Columns: []string{"a", "b", "c"}}
	for _, r := range rows {
		viaResult.Rows = append(viaResult.Rows, append([]string(nil), r...))
	}
	// The reference is the joined-key order Result.Sort defines.
	sort.Slice(viaResult.Rows, func(i, j int) bool {
		return strings.Join(viaResult.Rows[i], "\x00") < strings.Join(viaResult.Rows[j], "\x00")
	})
	viaLex := make([][]string, len(rows))
	copy(viaLex, rows)
	sort.Sort(lexRows(viaLex))
	for i := range viaLex {
		for c := range viaLex[i] {
			if viaLex[i][c] != viaResult.Rows[i][c] {
				t.Fatalf("row %d col %d: %q vs %q", i, c, viaLex[i][c], viaResult.Rows[i][c])
			}
		}
	}
}

// TestResultSortNULFallback pins the joined-key order for cells holding
// NUL, where element-wise comparison disagrees with it.
func TestResultSortNULFallback(t *testing.T) {
	// Joined keys "a\x00\x00z" < "a\x00b"; element-wise "a\x00" > "a".
	r := &Result{Rows: [][]string{{"a", "b"}, {"a\x00", "z"}}}
	r.Sort()
	if r.Rows[0][0] != "a\x00" {
		t.Fatalf("NUL cell: got order %q", r.Rows)
	}
}
