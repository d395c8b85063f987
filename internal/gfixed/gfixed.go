// Package gfixed implements the reduced-precision number formats of the
// GRAPE-6 processor chip (Section 3.4 of the paper):
//
//   - 64-bit fixed-point particle positions, so that coordinate differences
//     are exact;
//   - short-mantissa floating point for the pipeline arithmetic;
//   - block floating point for force accumulation: a fixed-point 64-bit
//     accumulator whose scale is set by an exponent chosen BEFORE the
//     calculation starts.
//
// The block-floating-point design gives GRAPE-6 a property the paper calls
// out explicitly: "the calculated result is independent of the number of
// processor chips used to calculate one force", because the integer
// summation is exact and the only rounding happens when each pairwise
// force is shifted into the block format. This package preserves that
// property bit-for-bit, and the chip emulator's tests rely on it.
package gfixed

import (
	"errors"
	"fmt"
	"math"
)

// Fixed64 is a position coordinate in 64-bit two's-complement fixed point.
// The binary point position is carried by the Format, not the value.
type Fixed64 int64

// Format describes the chip's arithmetic configuration.
type Format struct {
	// PosFrac is the number of fraction bits of the fixed-point position
	// format. The representable range is ±2^(63-PosFrac).
	PosFrac uint

	// MantBits is the mantissa width (including the implicit leading 1)
	// used for the pipeline's floating-point operations.
	MantBits uint

	// AccumFrac is the number of fraction bits of the block-floating-point
	// accumulator relative to 2^Exp: a contribution v is stored as the
	// integer round(v · 2^(AccumFrac-Exp)).
	AccumFrac uint
}

// Grape6 is the default format, modelled on the published GRAPE-6 word
// lengths: 64-bit fixed-point positions with 44 fraction bits (range
// ±2^19, resolution 2^-44), a 32-bit-mantissa pipeline, and a 64-bit
// accumulator with 40 fraction bits below the block exponent.
//
// The pipeline width follows the hardware's design rule rather than a
// specific gate count: the paper notes "the word length itself is chosen
// as such" that arithmetic error never affects the simulation. Below ~28
// mantissa bits the Aarseth timestep criterion becomes noise-dominated
// (reconstructed crackle ∝ δa/dt³) and block timesteps collapse — the
// mantissa ablation (grape6bench -exp a1) demonstrates exactly this
// cliff, and 32 bits sits safely above it.
var Grape6 = Format{
	PosFrac:   44,
	MantBits:  32,
	AccumFrac: 40,
}

// Validate reports configuration errors.
func (f Format) Validate() error {
	if f.PosFrac == 0 || f.PosFrac > 62 {
		return fmt.Errorf("gfixed: PosFrac %d out of range [1,62]", f.PosFrac)
	}
	if f.MantBits < 2 || f.MantBits > 53 {
		return fmt.Errorf("gfixed: MantBits %d out of range [2,53]", f.MantBits)
	}
	if f.AccumFrac == 0 || f.AccumFrac > 62 {
		return fmt.Errorf("gfixed: AccumFrac %d out of range [1,62]", f.AccumFrac)
	}
	return nil
}

// ErrPosRange is returned when a coordinate exceeds the fixed-point range.
var ErrPosRange = errors.New("gfixed: position outside fixed-point range")

const two63 = 9.223372036854776e18 // 2^63

// ToFixed converts a float64 coordinate to fixed point, rounding to
// nearest. It returns ErrPosRange if x is outside the representable range
// or not finite.
func (f Format) ToFixed(x float64) (Fixed64, error) {
	// Multiplying by an exact power of two is exact; the comparison below
	// also rejects NaN and ±Inf.
	scaled := math.RoundToEven(x * float64(uint64(1)<<f.PosFrac))
	if !(scaled < two63 && scaled >= -two63) {
		return 0, ErrPosRange
	}
	return Fixed64(scaled), nil
}

// FromFixed converts a fixed-point coordinate back to float64.
func (f Format) FromFixed(v Fixed64) float64 {
	return float64(v) * (1 / float64(uint64(1)<<f.PosFrac))
}

// PosResolution returns the quantum of the position format: exactly
// 2^-PosFrac, the scale factor that converts a fixed-point difference to
// the pipeline float format. Kernels hoist it out of their pair loops.
func (f Format) PosResolution() float64 { return math.Ldexp(1, -int(f.PosFrac)) }

// FloatBits returns the raw IEEE-754 bit pattern of x. It exists so that
// serialization layers (the chip's ECC-protected DRAM image, snapshot
// codecs) cross the float↔bits boundary through this package: grapelint's
// gfixedboundary analyzer forbids math.Float64bits outside gfixed, keeping
// every bit-level number-format decision in one place.
func FloatBits(x float64) uint64 { return math.Float64bits(x) }

// FloatFromBits is the inverse of FloatBits.
func FloatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// PosRange returns the largest representable coordinate magnitude.
func (f Format) PosRange() float64 { return math.Ldexp(1, 63-int(f.PosFrac)) }

// DiffToFloat computes the coordinate difference b-a exactly in fixed
// point and converts it to the pipeline's floating format. This is the
// chip's first pipeline stage: because the subtraction is exact, distant
// pairs lose no precision to catastrophic cancellation.
func (f Format) DiffToFloat(a, b Fixed64) float64 {
	return f.Round(f.FromFixed(b - a))
}

// Round rounds x to the pipeline mantissa width (round-to-nearest-even).
// Zero, infinities and NaN pass through unchanged.
//
//grape:noalloc
func (f Format) Round(x float64) float64 {
	return RoundMantissa(x, f.MantBits)
}

// RoundMantissa rounds x to the given mantissa width (including the
// implicit bit), round-to-nearest-even. bits must be in [1, 53]; 53 is an
// identity. It is the bit-exact specification of every rounding in the
// package and works directly on the IEEE-754 bit pattern; the chip's
// kernels inline Rounder.RoundTame instead, which agrees with it on their
// domain.
//
//grape:noalloc
func RoundMantissa(x float64, bits uint) float64 {
	if x == 0 || bits >= 53 {
		return x
	}
	b := math.Float64bits(x)
	exp := (b >> 52) & 0x7ff
	if exp == 0x7ff {
		return x // Inf or NaN
	}
	if exp == 0 {
		return roundSubnormal(x, bits)
	}
	// Keep bits-1 stored fraction bits; clear and round the rest.
	shift := 53 - bits
	half := uint64(1) << (shift - 1)
	mask := uint64(1)<<shift - 1
	frac := b & mask
	b &^= mask
	if frac > half || (frac == half && (b>>shift)&1 == 1) {
		// Round up; a mantissa carry propagates into the exponent, which
		// is exactly the correct IEEE rounding behaviour.
		b += uint64(1) << shift
	}
	return math.Float64frombits(b)
}

// roundSubnormal is the slow exact path for subnormal inputs. It is far
// over the inlining budget, and so are its callers RoundMantissa and
// Rounder.Round: a kernel that must not make a call per rounding uses
// Rounder.RoundTame behind an Untame guard instead.
//
//grape:noalloc
func roundSubnormal(x float64, bits uint) float64 {
	frac, e := math.Frexp(x)
	scaled := math.Ldexp(frac, int(bits))
	return math.Ldexp(math.RoundToEven(scaled), e-int(bits))
}

// Rounder is a mantissa rounder with the Veltkamp splitting constant
// hoisted out, for use in kernels that round in a tight loop. Obtain one
// via Format.Rounder (the zero value is NOT valid).
type Rounder struct {
	sigma float64 // 2^(53-bits) + 1: Veltkamp's splitting constant
	bits  uint    // mantissa width, including the implicit bit
}

// Rounder returns the precomputed rounder for the format's mantissa width.
func (f Format) Rounder() Rounder {
	bits := min(f.MantBits, 53)
	return Rounder{sigma: math.Ldexp(1, 53-int(bits)) + 1, bits: bits}
}

// Round rounds x to the rounder's mantissa width, round-to-nearest-even:
// RoundMantissa(x, bits), defined on every float64 and over the
// compiler's inlining budget, so every use is a real call; RoundTame is
// the inlinable part.
//
//grape:noalloc
func (r Rounder) Round(x float64) float64 {
	return RoundMantissa(x, r.bits)
}

// RoundTame is Round as Veltkamp's split, three floating-point operations
// that inline into a kernel's pair loop: with s = 53 - bits, c is
// x·(2^s + 1) rounded, and c - (c - x) is x rounded to bits significant
// bits, ties to even.
//
// It is bit-identical to Round on ±0 and every normal x with
// |x| < 2^(1023-s), which at every width in [2, 53] includes
// [2^-1022, 2^972). It may be WRONG on subnormals (the split needs c and
// c - x rounded to 53 significant bits, not to the subnormals' fixed
// grid), on |x| ≥ 2^(1023-s) (c may overflow, and Inf - Inf is NaN), on
// ±Inf and on NaN. A caller must therefore know its argument is inside
// the domain — which is what Untame on the inputs of a pipeline, plus the
// interval argument written next to it, establishes — or call Round.
//
// The float64 conversions are the Go spec's fusion barrier: where the
// compiler fuses multiply-add, c - x would otherwise skip the rounding of
// the product that made c, or of a caller's x that is itself a product.
//
//grape:noalloc
func (r Rounder) RoundTame(x float64) float64 {
	x = float64(x)
	c := float64(x * r.sigma)
	return c - float64(c-x)
}

// TameExp bounds the tame class: a float64 is tame when it is ±0 or its
// magnitude lies in [2^-TameExp, 2^TameExp). The width is what the chip's
// pipelines need for their interval arguments (no product of a few tame
// values and bounded geometry factors can reach the subnormal range or
// overflow to Inf, where 0·Inf and Inf-Inf would breed NaN) and is a power
// of two in exponent count so that Untame is one subtract and one shift.
const TameExp = 128

const (
	tameLo    = uint64(1023-TameExp) << 53 // sign-stripped bits of 2^-TameExp
	tameShift = 53 + 8                     // log2 of the class width in sign-stripped bits: 2·TameExp = 2^8 exponents
)

// Untame returns zero when x is tame (see TameExp) and a nonzero word
// otherwise: subnormals, anything tiny or huge, ±Inf and NaN of every
// payload. The words of several values OR together, so a kernel guards a
// whole pair with one branch: Untame(a)|Untame(b)|Untame(c) != 0.
//
//grape:noalloc
func Untame(x float64) uint64 {
	u := math.Float64bits(x) << 1 // drop the sign
	if u == 0 {
		return 0
	}
	return (u - tameLo) >> tameShift
}

// Accum is a block-floating-point accumulator: Sum counts units of
// 2^(Exp-AccumFrac). Two accumulators with equal Exp merge by exact
// integer addition, which is what the module/board FPGA reduction trees do.
//
// Accum is a plain value type (no interior pointers) so that slabs of
// accumulators can be embedded in larger result records and reused across
// force evaluations without allocation — mirroring the hardware, where
// every accumulator is a register.
type Accum struct {
	Exp      int   // block exponent, fixed before accumulation starts
	Sum      int64 // fixed-point sum
	Overflow bool  // set when a contribution or the sum left the range
	fmt      Format
	scale    float64 // 2^(AccumFrac-Exp), cached for the hot Add path
}

// MakeAccum returns an accumulator value with the given block exponent.
//
//grape:noalloc
func (f Format) MakeAccum(exp int) Accum {
	return Accum{Exp: exp, fmt: f, scale: math.Ldexp(1, int(f.AccumFrac)-exp)}
}

// Init re-initialises an accumulator in place: zero sum, cleared overflow
// flag, new block exponent. Used by callers that reuse accumulator slabs
// across evaluations.
//
//grape:noalloc
func (a *Accum) Init(f Format, exp int) {
	*a = f.MakeAccum(exp)
}

// Add quantizes v into the block format and adds it. The quantization is
// the ONLY rounding in the whole summation, making the result independent
// of summation order and machine partitioning. Contributions too large for
// the block exponent set the Overflow flag (the hardware's signal to the
// host to retry with a larger exponent).
//
// The integer rounding uses the 2^52 magic-constant trick instead of
// math.RoundToEven: for |q| < 2^52 the addition rounds q to an integer in
// one IEEE round-to-nearest-even operation, and anything ≥ 2^52 is already
// integral. Bit-identical results without a call to math.RoundToEven — but
// Add itself is still over the inlining budget (cost 111 against 80), so
// every use is a real call. A kernel that accumulates in a loop holds Sum
// in a local and uses AddTame on it.
//
//grape:noalloc
func (a *Accum) Add(v float64) {
	if v == 0 {
		return
	}
	q := float64(v * a.scale) // rounded: no fused multiply-add below
	if q < two52 && q > -two52 {
		if q >= 0 {
			q = q + two52 - two52
		} else {
			q = q - two52 + two52
		}
	}
	// The comparison rejects over-range values, ±Inf and NaN in one shot.
	if !(q < two62 && q > -two62) {
		a.Overflow = true
		return
	}
	qi := int64(q)
	s := a.Sum + qi
	// Reject saturation (|s| ≥ 2^62) and two's-complement wraparound
	// (operands share a sign, sum's sign differs) in one predicate.
	if s >= 1<<62 || s <= -(1<<62) ||
		((a.Sum >= 0) == (qi >= 0) && (s >= 0) != (a.Sum >= 0) && a.Sum != 0 && qi != 0) {
		a.Overflow = true
		return
	}
	a.Sum = s
}

const (
	two52 = 4.503599627370496e15 // 2^52
	two62 = 4.611686018427388e18 // 2^62
)

// Scale returns the quantisation factor 2^(AccumFrac-Exp) that AddTame
// takes: a contribution v is stored as round(v · Scale()).
//
//grape:noalloc
func (a *Accum) Scale() float64 { return a.scale }

// AddTame is the inlinable part of Add, for a caller that keeps Sum in a
// register across a loop and stores it back afterwards: it returns the sum
// with v quantised and added. miss is nonzero whenever the step is not a
// plain in-range add — a quantised magnitude of 2^51 or more (which
// includes every contribution that overflows the block format, ±Inf, NaN,
// and 0·Inf from a zero v under an infinite scale) or a result outside
// ±2^61, which every step from a sum at or past saturation (as Merge can
// leave one) produces — and the returned sum is then meaningless: the
// caller must redo the step from the sum it passed in with Add, which
// decides between a large legitimate contribution and Overflow. AddTame
// never sets the flag itself. The miss words of several steps OR together,
// so a kernel tests a whole pair with one branch.
//
// Inside that range Add's other tests are dead, and the rest is a few
// integer operations: one magic constant 1.5·2^52 rounds either sign to
// the nearest-even integer with no branch on the sign, because for
// |q| < 2^51 the float64 q+magic lies in [2^52, 2^53), where the spacing is
// 1 (and magic is even, so ties keep q's parity); the rounded integer is
// then the difference of the two bit patterns, and "q was below 2^51" is
// "the sum kept magic's exponent". A hit from a sum inside ±2^61 cannot
// have wrapped, and a zero v adds a zero q; a sum outside it cannot come
// back inside with |q| < 2^51 unless the exact addition does too.
//
//grape:noalloc
func AddTame(sum int64, v, scale float64) (s int64, miss uint64) {
	t := math.Float64bits(float64(v*scale) + magic) // rounded product, as in Add
	s = sum + int64(t-magicBits)
	return s, (t>>magicShift ^ magicBits>>magicShift) | uint64(s+sumBias)>>sumShift
}

// AddTame's constants. magic is 1.5·2^52, even, with every float64 in
// [2^52, 2^53) one apart; t kept magic's exponent (bits magicShift and up
// of its pattern unchanged) iff |v·scale| < 2^51; s + sumBias has a bit at
// sumShift or above iff s is outside ±2^61.
const (
	magic      = 1.5 * two52
	magicBits  = 0x433<<52 | 1<<51 // math.Float64bits(magic)
	magicShift = 52
	sumBias    = 1 << 61
	sumShift   = 62
)

// Lanes are the bit-level constants of RoundTame, AddTame and Untame in the
// form a SIMD kernel applies them, four lanes at a time, where every test is
// a mask and the miss words of a whole pair OR into one. It is how gfixed
// hands its format decisions to chip's AVX2 pair loop, whose assembly has
// none of its own. Per lane, with bits(x) the IEEE pattern of x:
//
//   - RoundTame(x): c = x·Sigma, then c − (c − x).
//   - AddTame(sum, v, scale): t = bits(v·scale + Magic) and
//     s = sum + (t − bits(Magic)); the step missed iff
//     (t XOR bits(Magic)) AND MagicMiss or (s + SumBias) AND SumMiss is
//     nonzero. For a negated contribution, Magic − v·scale is the same t.
//   - Untame(x) ≠ 0: with u = bits(x)·2 (the sign dropped), u ≠ 0 and
//     (u − TameLo) AND TameMiss ≠ 0.
//   - float64(d) for an int64 d: t = d + bits(Magic) is bits(Magic + d)
//     when −2^51 ≤ d < 2^51, so t as a float64 minus Magic is d exactly;
//     (t XOR bits(Magic)) AND MagicMiss is nonzero iff d is outside that
//     range, wrapped differences included.
type Lanes struct {
	Sigma     float64
	Magic     float64
	MagicMiss uint64
	SumBias   uint64
	SumMiss   uint64
	TameLo    uint64
	TameMiss  uint64
}

// Lanes returns the constants of the rounder's width.
func (r Rounder) Lanes() Lanes {
	return Lanes{
		Sigma:     r.sigma,
		Magic:     magic,
		MagicMiss: ^uint64(1<<magicShift - 1),
		SumBias:   sumBias,
		SumMiss:   ^uint64(1<<sumShift - 1),
		TameLo:    tameLo,
		TameMiss:  ^uint64(1<<tameShift - 1),
	}
}

// Merge adds another accumulator's partial sum exactly. Both must share
// the same block exponent; mismatch is a programming error and panics, as
// the hardware has no path for it.
//
//grape:noalloc
func (a *Accum) Merge(b *Accum) {
	if a.Exp != b.Exp || a.fmt.AccumFrac != b.fmt.AccumFrac {
		panic("gfixed: merging accumulators with different block formats")
	}
	if b.Overflow {
		a.Overflow = true
	}
	s, ok := addCheck(a.Sum, b.Sum)
	if !ok {
		a.Overflow = true
		return
	}
	a.Sum = s
}

// Value converts the accumulated fixed-point sum back to float64.
func (a *Accum) Value() float64 {
	return math.Ldexp(float64(a.Sum), a.Exp-int(a.fmt.AccumFrac))
}

// Reset clears the sum and overflow flag, keeping the exponent.
func (a *Accum) Reset() {
	a.Sum = 0
	a.Overflow = false
}

func addCheck(a, b int64) (int64, bool) {
	s := a + b
	// Overflow iff operands share a sign and the sum's sign differs.
	if (a >= 0) == (b >= 0) && (s >= 0) != (a >= 0) && a != 0 && b != 0 {
		return 0, false
	}
	return s, true
}

// ExponentFor returns a block exponent suitable for accumulating values
// whose final magnitude is around |v|, with headroom bits of margin for
// intermediate growth. This is the host's "guess from the previous
// timestep" (Section 3.4).
func ExponentFor(v float64, headroom int) int {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return headroom
	}
	_, e := math.Frexp(v)
	return e + headroom
}
