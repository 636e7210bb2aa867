package mem

import "math/bits"

// This file implements the specialized address-manipulation logic the paper
// calls for in §III-A.7: embedding tags in DRAM makes the Unison Cache page
// size a non-power-of-two number of blocks (15 for 960 B pages, 31 for
// 1984 B pages), so locating a page requires dividing a block address by
// 2^n-1. A general divider would be too slow in hardware; the paper notes
// the modulo with respect to a constant of the form 2^n-1 can be computed
// with a few adders using residue arithmetic. We implement exactly that
// fold-and-add reduction, and recover the exact quotient by multiplying the
// remainder-corrected value with the modular inverse of the divisor, which
// in hardware is a constant multiplier (and in Go a single MUL).

// MersenneMod returns x mod (2^n - 1) for 1 <= n <= 32 using the residue
// fold: the base-2^n digits of x are summed, and the sum is reduced again
// until it fits in n bits. This mirrors the adder tree a hardware
// implementation would use.
func MersenneMod(x uint64, n uint) uint64 {
	m := uint64(1)<<n - 1
	if m == 0 {
		return 0
	}
	// Each fold halves (at most) the number of significant digits; for a
	// 64-bit input and n >= 1 a handful of iterations always suffices.
	for x > m {
		sum := uint64(0)
		for v := x; v > 0; v >>= n {
			sum += v & m
		}
		x = sum
	}
	// The fold computes values in [0, 2^n-1] where 2^n-1 ≡ 0.
	if x == m {
		return 0
	}
	return x
}

// Divider performs exact division and modulo by a fixed divisor of the form
// 2^n - 1. It is the software model of the paper's residue-arithmetic
// address-mapping unit: Mod is an adder tree, the quotient one constant
// multiply. The zero value is not usable; construct with NewDivider.
type Divider struct {
	n   uint   // divisor is 2^n - 1
	d   uint64 // the divisor itself
	inv uint64 // multiplicative inverse of d modulo 2^64
}

// NewDivider returns a Divider for the divisor 2^n - 1. It panics if n is
// outside [2, 32]; the simulator only ever uses 15 (n=4) and 31 (n=5), but
// the full range keeps the unit reusable and testable.
func NewDivider(n uint) *Divider {
	if n < 2 || n > 32 {
		panic("mem: Divider modulus must be 2^n-1 with 2 <= n <= 32")
	}
	d := uint64(1)<<n - 1
	return &Divider{n: n, d: d, inv: modInverse64(d)}
}

// Divisor returns the constant this Divider divides by.
func (dv *Divider) Divisor() uint64 { return dv.d }

// Mod returns x mod (2^n - 1).
func (dv *Divider) Mod(x uint64) uint64 { return MersenneMod(x, dv.n) }

// DivMod returns the quotient and remainder of x by 2^n - 1. x - r is
// divisible by the divisor, so multiplying it by the modular inverse of the
// divisor mod 2^64 yields the true quotient, exact for any x.
func (dv *Divider) DivMod(x uint64) (q, r uint64) {
	r = dv.Mod(x)
	return (x - r) * dv.inv, r
}

// modInverse64 computes the multiplicative inverse of odd d modulo 2^64
// using Newton-Raphson iteration; five steps double the valid bits from 5
// to 80 > 64.
func modInverse64(d uint64) uint64 {
	if d&1 == 0 {
		panic("mem: modular inverse requires an odd divisor")
	}
	x := d // 3+ bits correct: d*d ≡ 1 (mod 8) for odd d ⇒ x=d is inverse mod 8... start refined below
	x *= 2 - d*x
	x *= 2 - d*x
	x *= 2 - d*x
	x *= 2 - d*x
	x *= 2 - d*x
	if d*x != 1 {
		// Unreachable for odd d; kept as an invariant check because the
		// cache indexes every access through this unit.
		panic("mem: modular inverse iteration failed to converge")
	}
	return x
}

// XORFoldHash reduces a value to `bits` bits by XOR-folding, the hash the
// paper's way predictor uses ("a 2-bit array directly indexed by the 12-bit
// XOR hash of the page address", §III-A.6).
func XORFoldHash(x uint64, nbits uint) uint64 {
	if nbits == 0 || nbits >= 64 {
		return x
	}
	mask := uint64(1)<<nbits - 1
	h := uint64(0)
	for ; x > 0; x >>= nbits {
		h ^= x & mask
	}
	return h
}

// Mix64 is a splitmix64 finalizer used wherever the simulator needs a
// high-quality deterministic hash (predictor table indexing, synthetic
// pattern derivation). It is a bijection on 64-bit values.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PopCount32 counts set bits in a 32-bit footprint vector.
func PopCount32(v uint32) int { return bits.OnesCount32(v) }
