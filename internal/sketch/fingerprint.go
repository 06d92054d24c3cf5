package sketch

import (
	"fmt"
	"math"

	"cheetah/internal/hashutil"
)

// Fingerprinter maps wide or multi-column keys to short fixed-width
// fingerprints, as CWorkers do before sending entries whose key exceeds
// the bits a switch can parse (§5, Example #8). Fingerprints of f bits are
// the low f bits of a seeded 64-bit hash.
type Fingerprinter struct {
	bits  uint
	mask  uint64
	seed  uint64
	mixed uint64 // hashutil.Premix(seed), for the 64-bit key hashes
}

// NewFingerprinter creates a fingerprinter producing fingerprints of the
// given bit length (1..64).
func NewFingerprinter(bits uint, seed uint64) (*Fingerprinter, error) {
	if bits == 0 || bits > 64 {
		return nil, fmt.Errorf("sketch: fingerprint length %d out of range 1..64", bits)
	}
	mask := ^uint64(0)
	if bits < 64 {
		mask = (1 << bits) - 1
	}
	return &Fingerprinter{bits: bits, mask: mask, seed: seed, mixed: hashutil.Premix(seed)}, nil
}

// Bits returns the fingerprint length.
func (f *Fingerprinter) Bits() uint { return f.bits }

// Bytes fingerprints a byte-serialized key.
func (f *Fingerprinter) Bytes(key []byte) uint64 {
	return hashutil.Hash64(key, f.seed) & f.mask
}

// String fingerprints a string key without copying it.
func (f *Fingerprinter) String(key string) uint64 {
	return hashutil.HashString64(key, f.seed) & f.mask
}

// Uint64 fingerprints a 64-bit key.
func (f *Fingerprinter) Uint64(key uint64) uint64 {
	return hashutil.HashPremixed(key, f.mixed) & f.mask
}

// Columns fingerprints a multi-column key given as alternating 64-bit
// values (string columns must be pre-hashed by the caller). The fold is
// order-sensitive: (a,b) and (b,a) produce different fingerprints.
func (f *Fingerprinter) Columns(vals ...uint64) uint64 {
	h := f.seed
	for _, v := range vals {
		h = hashutil.Mix64(h ^ hashutil.HashPremixed(v, f.mixed))
	}
	return h & f.mask
}

// MaxRowLoad computes the bound M of Theorem 4/6: with d rows and error
// budget delta, M upper-bounds (w.h.p.) the number of distinct elements
// mapped into any single row when D distinct elements are hashed into the
// d rows:
//
//	M = e·D/d                          if D > d·ln(2d/δ)
//	M = e·ln(2d/δ)                     if d·ln(1/δ)/e ≤ D ≤ d·ln(2d/δ)
//	M = 1.3·ln(2d/δ) / ln((d/(D·e))·ln(2d/δ))   otherwise
func MaxRowLoad(distinct, d int, delta float64) (float64, error) {
	if distinct <= 0 || d <= 0 || delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("sketch: invalid MaxRowLoad(D=%d, d=%d, delta=%v)", distinct, d, delta)
	}
	D := float64(distinct)
	df := float64(d)
	l2d := math.Log(2 * df / delta)
	switch {
	case D > df*l2d:
		return math.E * D / df, nil
	case D >= df*math.Log(1/delta)/math.E:
		return math.E * l2d, nil
	default:
		denom := math.Log(df / (D * math.E) * l2d)
		if denom <= 0 {
			// Fall back to the middle-regime bound, which always dominates.
			return math.E * l2d, nil
		}
		return 1.3 * l2d / denom, nil
	}
}

// FingerprintBits computes Theorem 4/6's required fingerprint length
// f = ⌈log2(d·M²/δ)⌉ so that, with probability ≥ 1-δ, no two distinct
// elements hashed to the same row share a fingerprint. The result is
// capped at 64 (the widest value the Cheetah header carries).
func FingerprintBits(distinct, d int, delta float64) (uint, error) {
	m, err := MaxRowLoad(distinct, d, delta)
	if err != nil {
		return 0, err
	}
	bits := math.Ceil(math.Log2(float64(d) * m * m / delta))
	if bits < 1 {
		bits = 1
	}
	if bits > 64 {
		bits = 64
	}
	return uint(bits), nil
}

// FingerprintBitsSimple computes Theorem 5's simpler stream-length bound
// f = ⌈log2(w·m/δ)⌉ for a stream of m entries and row width w.
func FingerprintBitsSimple(streamLen, w int, delta float64) (uint, error) {
	if streamLen <= 0 || w <= 0 || delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("sketch: invalid FingerprintBitsSimple(m=%d, w=%d, delta=%v)", streamLen, w, delta)
	}
	bits := math.Ceil(math.Log2(float64(w) * float64(streamLen) / delta))
	if bits < 1 {
		bits = 1
	}
	if bits > 64 {
		bits = 64
	}
	return uint(bits), nil
}
