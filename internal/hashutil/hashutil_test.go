package hashutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownSequence(t *testing.T) {
	// Reference values for seed 0 from the SplitMix64 reference
	// implementation (Vigna). The first output of splitmix64(0) is
	// 0xe220a8397b1dcdaf.
	got := SplitMix64(0)
	const want = uint64(0xe220a8397b1dcdaf)
	if got != want {
		t.Fatalf("SplitMix64(0) = %#x, want %#x", got, want)
	}
}

func TestMix64Bijective(t *testing.T) {
	seen := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: Mix64(%d) == Mix64(%d) == %#x", i, prev, h)
		}
		seen[h] = i
	}
}

func TestHash64MatchesStringVariant(t *testing.T) {
	cases := []string{"", "a", "abcd", "abcdefg", "abcdefgh", "hello world",
		"0123456789abcdef0123456789abcdef-and-more-bytes-to-cross-32"}
	for _, s := range cases {
		for _, seed := range []uint64{0, 1, 0xdeadbeef} {
			if Hash64([]byte(s), seed) != HashString64(s, seed) {
				t.Errorf("Hash64 != HashString64 for %q seed %d", s, seed)
			}
		}
	}
}

func TestHash64SeedSensitivity(t *testing.T) {
	b := []byte("cheetah")
	if Hash64(b, 1) == Hash64(b, 2) {
		t.Fatal("different seeds produced identical hashes")
	}
}

func TestHash64PropertyDeterministic(t *testing.T) {
	f := func(b []byte, seed uint64) bool {
		return Hash64(b, seed) == Hash64(b, seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashString64PropertyMatchesBytes(t *testing.T) {
	f := func(s string, seed uint64) bool {
		return HashString64(s, seed) == Hash64([]byte(s), seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFamilyIndependence(t *testing.T) {
	f := NewFamily(4, 42)
	if f.Size() != 4 {
		t.Fatalf("Size = %d, want 4", f.Size())
	}
	// Members must differ on a fixed input.
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		h := f.Uint64(i, 12345)
		if seen[h] {
			t.Fatalf("family members %d collide on fixed input", i)
		}
		seen[h] = true
	}
}

func TestFamilyPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFamily(0) did not panic")
		}
	}()
	NewFamily(0, 1)
}

func TestReduceRange(t *testing.T) {
	f := func(h uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := Reduce(h, m)
		return r >= 0 && r < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReduceFullRange(t *testing.T) {
	f := func(h uint64, n uint32) bool {
		m := uint64(n%100000) + 1
		r := ReduceFull(h, m)
		return r < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReduceUniformity(t *testing.T) {
	// Chi-squared sanity check: hash 0..N-1 into 16 buckets; each bucket
	// should be near N/16.
	const n = 1 << 16
	const buckets = 16
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[Reduce(HashUint64(uint64(i), 7), buckets)]++
	}
	want := float64(n) / buckets
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - want
		chi2 += d * d / want
	}
	// 15 degrees of freedom; 99.99% quantile is ~44.3. Allow generous slack.
	if chi2 > 60 {
		t.Fatalf("hash distribution too skewed: chi2 = %f", chi2)
	}
}

func TestHashUint64AvalancheRough(t *testing.T) {
	// Flipping one input bit should flip ~32 output bits on average.
	var totalFlips, trials int
	for i := uint64(1); i < 64; i++ {
		base := HashUint64(0xABCDEF, 9)
		flipped := HashUint64(0xABCDEF^(1<<i), 9)
		diff := base ^ flipped
		totalFlips += popcount(diff)
		trials++
	}
	avg := float64(totalFlips) / float64(trials)
	if math.Abs(avg-32) > 6 {
		t.Fatalf("weak avalanche: average %.1f bits flipped, want ~32", avg)
	}
}

// hashUint64Golden pins HashUint64 (x, seed, hash) triples recorded
// before the premixed form existed, so the hoist cannot drift the hash
// every sketch, cache and shard placement is built on.
var hashUint64Golden = [][3]uint64{
	{0x0, 0x0, 0x9474f0eb06d79fd8},
	{0x1, 0x0, 0x329d2532f4872b1b},
	{0x0, 0x1, 0x1f72637756819f47},
	{0xabcdef, 0x9, 0x745602739a48aba1},
	{0xffffffffffffffff, 0xdeadbeef, 0x78b0319abc8a8ee7},
	{0x2a, 0x5ca77e12c0ffee42, 0xa51a1e0c2ab5de5c},
}

func TestHashPremixedMatchesHashUint64(t *testing.T) {
	for _, g := range hashUint64Golden {
		if got := HashUint64(g[0], g[1]); got != g[2] {
			t.Errorf("HashUint64(%#x, %#x) = %#x, want %#x", g[0], g[1], got, g[2])
		}
		if got := HashPremixed(g[0], Premix(g[1])); got != g[2] {
			t.Errorf("HashPremixed(%#x, Premix(%#x)) = %#x, want %#x", g[0], g[1], got, g[2])
		}
	}
	f := func(x, seed uint64) bool {
		return HashPremixed(x, Premix(seed)) == HashUint64(x, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10_000}); err != nil {
		t.Fatal(err)
	}
}

func TestFamilyUint64Golden(t *testing.T) {
	// Family members hash through their premixed seeds; the outputs are
	// the ones recorded when every call re-mixed its seed.
	f := NewFamily(3, 7)
	for i, want := range []uint64{0x83ffcc9d625bb1b8, 0xf4b3f037bb14668f, 0x2324b66a60a90fa6} {
		if got := f.Uint64(i, 12345); got != want {
			t.Errorf("Family(3, 7).Uint64(%d, 12345) = %#x, want %#x", i, got, want)
		}
		if got, ref := f.Uint64(i, 12345), HashUint64(12345, f.seeds[i]); got != ref {
			t.Errorf("member %d: %#x, HashUint64 with its seed %#x", i, got, ref)
		}
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func BenchmarkHashUint64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= HashUint64(uint64(i), 1)
	}
	_ = sink
}

func BenchmarkHashString64Short(b *testing.B) {
	var sink uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink ^= HashString64("api.example.com/path", 1)
	}
	_ = sink
}

func BenchmarkHash64_64B(b *testing.B) {
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.SetBytes(64)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= Hash64(buf, 1)
	}
	_ = sink
}
