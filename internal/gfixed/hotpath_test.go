package gfixed

import (
	"math"
	"testing"

	"grape6/internal/xrand"
)

// refAdd is the pre-optimization Add: math.RoundToEven quantization and
// the two-step overflow check. The hot Add must stay bit-identical to it.
func refAdd(a *Accum, v float64) {
	if v == 0 {
		return
	}
	const two62 = 4.611686018427388e18 // 2^62
	q := math.RoundToEven(v * a.scale)
	if !(q < two62 && q > -two62) {
		a.Overflow = true
		return
	}
	s, ok := addCheck(a.Sum, int64(q))
	if !ok || s >= 1<<62 || s <= -(1<<62) {
		a.Overflow = true
		return
	}
	a.Sum = s
}

// interestingFloats covers the edge cases of the rounding fast paths:
// zeros, subnormals, values at the magic-constant and saturation
// boundaries, infinities and NaN.
func interestingFloats() []float64 {
	vs := []float64{
		0, math.Copysign(0, -1),
		1, -1, 0.5, 1.5, 2.5, math.Pi, -math.E,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Ldexp(1, -1030), math.Ldexp(1.37, -1040), // subnormals
		math.Ldexp(1, -1022), math.Nextafter(math.Ldexp(1, -1022), 0),
		math.MaxFloat64, -math.MaxFloat64,
		math.Ldexp(1, 52), math.Ldexp(1, 52) - 0.5, math.Ldexp(1, 52) + 1,
		math.Ldexp(1, 62), math.Nextafter(math.Ldexp(1, 62), 0),
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	// Tie patterns for round-to-even: x.5 ulps at various widths.
	for _, bits := range []uint{8, 24, 32} {
		ulp := math.Ldexp(1, -int(bits))
		vs = append(vs, 1+ulp, 1+3*ulp, 1+ulp/2, 1+3*ulp/2, -(1 + 3*ulp/2))
	}
	// Appended after the original set so existing fuzz seed numbers keep
	// their inputs: NaNs whose payload RoundTame would carry into the
	// exponent or the sign, the tame class's edges, and AddTame's 2^51 and
	// 2^61 boundaries.
	vs = append(vs,
		math.Float64frombits(0x7fffffffffffffff), math.Float64frombits(0xffffffffffffffff),
		math.Float64frombits(0x7ff0000000000001),
		math.Ldexp(1, -TameExp), math.Nextafter(math.Ldexp(1, -TameExp), 0),
		math.Ldexp(1, TameExp), math.Nextafter(math.Ldexp(1, TameExp), 0),
		math.Ldexp(1, 51), math.Nextafter(math.Ldexp(1, 51), 0), -math.Ldexp(1, 51),
		math.Ldexp(1, 61), -math.Ldexp(1, 61),
	)
	return vs
}

func TestRounderMatchesRoundMantissa(t *testing.T) {
	rng := xrand.New(99)
	for _, bits := range []uint{2, 8, 24, 32, 52, 53} {
		f := Format{PosFrac: 44, MantBits: bits, AccumFrac: 40}
		r := f.Rounder()
		check := func(x float64) {
			t.Helper()
			want := RoundMantissa(x, bits)
			got := r.Round(x)
			if math.Float64bits(got) != math.Float64bits(want) &&
				!(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("bits=%d x=%g (%#x): Rounder %g (%#x) != RoundMantissa %g (%#x)",
					bits, x, math.Float64bits(x), got, math.Float64bits(got),
					want, math.Float64bits(want))
			}
		}
		for _, x := range interestingFloats() {
			check(x)
		}
		for i := 0; i < 100000; i++ {
			x := math.Float64frombits(rng.Uint64())
			check(x)
		}
	}
}

// TestRoundTameVeltkamp pins RoundTame to RoundMantissa, bit for bit, on
// the inputs where a splitting constant off by anything would show: at
// every width, ties of half a kept ulp with an odd and an even kept lsb and
// the floats either side of them, all-ones mantissas that carry into the
// next binade, the bottom normal binades and the two binades below the
// domain top 2^(1023-s), both signs, and ±0. sigma = 2^s - 1 or 2^(s+1) + 1
// fails it.
func TestRoundTameVeltkamp(t *testing.T) {
	for bits := uint(2); bits <= 53; bits++ {
		s := 53 - bits
		r := Format{PosFrac: 44, MantBits: bits, AccumFrac: 40}.Rounder()
		check := func(x float64) {
			t.Helper()
			got, want := r.RoundTame(x), RoundMantissa(x, bits)
			if !sameBits(got, want) {
				t.Fatalf("bits=%d x=%#x: RoundTame %#x != RoundMantissa %#x",
					bits, math.Float64bits(x), math.Float64bits(got), math.Float64bits(want))
			}
		}
		check(0)
		check(math.Copysign(0, -1))

		keptMask := uint64(1)<<(bits-1) - 1 // the stored fraction bits kept
		kept := []uint64{0, 1, 2, 0x5555555555555 & keptMask, keptMask - 1, keptMask}
		var dropped []uint64 // low bits of the tie and its neighbours
		if s > 0 {
			half := uint64(1) << (s - 1)
			dropped = []uint64{half - 1, half, half + 1, 0, 1<<s - 1}
		}
		// Biased exponents: 2^-1022 … 2^-1020, one, and the two binades
		// below 2^(1023-s).
		for _, e := range []uint64{1, 2, 3, 1023, 2044 - uint64(s), 2045 - uint64(s)} {
			for _, k := range kept {
				base := e<<52 | (k&keptMask)<<s
				for _, sign := range []uint64{0, 1 << 63} {
					check(math.Float64frombits(sign | base))
					for _, d := range dropped {
						check(math.Float64frombits(sign | (base + d)))
					}
				}
			}
			// The all-ones mantissa: a round-up carries into the next
			// binade.
			check(math.Float64frombits(e<<52 | (1<<52 - 1)))
			check(math.Float64frombits(1<<63 | e<<52 | (1<<52 - 1)))
		}

		// A product argument: on a target with fused multiply-add the
		// inlined split must not fold the caller's multiply into c - x.
		a, b := 1.0/3, math.Pi
		for i := 0; i < 64; i++ {
			p := a * b
			if got, want := r.RoundTame(a*b), RoundMantissa(p, bits); !sameBits(got, want) {
				t.Fatalf("bits=%d %v*%v: RoundTame %#x != RoundMantissa %#x",
					bits, a, b, math.Float64bits(got), math.Float64bits(want))
			}
			a, b = b*1.0625, -a*0.75
		}
	}
}

func TestAddMatchesReference(t *testing.T) {
	rng := xrand.New(100)
	for _, exp := range []int{-20, 0, 8, 40, 80} {
		a := Grape6.MakeAccum(exp)
		b := Grape6.MakeAccum(exp)
		step := func(v float64) {
			t.Helper()
			a.Add(v)
			refAdd(&b, v)
			if a.Sum != b.Sum || a.Overflow != b.Overflow {
				t.Fatalf("exp=%d v=%g: Add (sum=%d ovf=%v) != reference (sum=%d ovf=%v)",
					exp, v, a.Sum, a.Overflow, b.Sum, b.Overflow)
			}
			if a.Overflow {
				a.Reset()
				b.Reset()
			}
		}
		for _, v := range interestingFloats() {
			step(v)
		}
		for i := 0; i < 100000; i++ {
			// Mix magnitudes so quantized values land both below and above
			// the 2^52 magic-constant boundary.
			v := rng.Norm() * math.Ldexp(1, rng.Intn(40)-10+exp)
			step(v)
		}
	}
}

func TestAccumInitReuse(t *testing.T) {
	a := Grape6.MakeAccum(4)
	a.Add(1.25)
	a.Add(-0.5)
	if a.Sum == 0 {
		t.Fatal("accumulator did not accumulate")
	}
	a.Init(Grape6, 7)
	fresh := Grape6.MakeAccum(7)
	if a != fresh {
		t.Errorf("Init did not restore the fresh state: %+v vs %+v", a, fresh)
	}
	a.Add(3)
	fresh.Add(3)
	if a.Sum != fresh.Sum {
		t.Errorf("reused accumulator diverges: %d vs %d", a.Sum, fresh.Sum)
	}
}

func BenchmarkRounderRound(b *testing.B) {
	r := Grape6.Rounder()
	b.ReportAllocs()
	var s float64
	for i := 0; i < b.N; i++ {
		s += r.Round(math.Pi * float64(i))
	}
	_ = s
}

// TestLanesMatchTameForms evaluates the vector forms documented on Lanes
// one lane at a time and holds each against the scalar form it stands for:
// RoundTame, AddTame's sum and whether it missed, Untame's zero test, and
// the int64 conversion with its ±2^51 guard.
func TestLanesMatchTameForms(t *testing.T) {
	rng := xrand.New(54)
	vs := interestingFloats()
	for i := 0; i < 2000; i++ {
		vs = append(vs, rng.Norm()*math.Ldexp(1, rng.Intn(2100)-1050))
	}
	for _, bits := range []uint{2, 20, 32, 53} {
		r := Format{PosFrac: 44, MantBits: bits, AccumFrac: 40}.Rounder()
		l := r.Lanes()
		for _, x := range vs {
			// Where RoundTame is defined, the split is it.
			if Untame(x) == 0 {
				c := x * l.Sigma
				if got, want := c-(c-x), r.RoundTame(x); !sameBits(got, want) {
					t.Fatalf("bits=%d x=%#x: lane split %#x != RoundTame %#x", bits, math.Float64bits(x), math.Float64bits(got), math.Float64bits(want))
				}
			}
			u := math.Float64bits(x) << 1
			if got, want := u != 0 && (u-l.TameLo)&l.TameMiss != 0, Untame(x) != 0; got != want {
				t.Fatalf("x=%#x: lane Untame %v, Untame %v", math.Float64bits(x), got, want)
			}
		}
	}
	l := Grape6.Rounder().Lanes()
	magicBits := math.Float64bits(l.Magic)
	sums := []int64{0, 1, -1, 1<<61 - 1, 1 << 61, -(1 << 61), -(1 << 61) - 1, 1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64}
	for _, exp := range []int{40, 4, -30, -1500, 1500} {
		a := Grape6.MakeAccum(exp)
		scale := a.Scale()
		for _, sum := range sums {
			for _, v := range vs {
				tb := math.Float64bits(v*scale + l.Magic)
				s := sum + int64(tb-magicBits)
				miss := (tb^magicBits)&l.MagicMiss|(uint64(s)+l.SumBias)&l.SumMiss != 0
				ws, wmiss := AddTame(sum, v, scale)
				if miss != (wmiss != 0) || !miss && s != ws {
					t.Fatalf("sum=%d v=%#x exp=%d: lanes (%d, miss %v), AddTame (%d, %#x)", sum, math.Float64bits(v), exp, s, miss, ws, wmiss)
				}
				// A negated contribution as Magic minus the product.
				if nb := math.Float64bits(l.Magic - v*scale); v == v && nb != math.Float64bits(-v*scale+l.Magic) {
					t.Fatalf("v=%#x exp=%d: Magic - v·scale %#x != -v·scale + Magic", math.Float64bits(v), exp, nb)
				}
			}
		}
	}
	ds := []int64{0, 1, -1, 1<<51 - 1, -(1 << 51), 1 << 51, -(1 << 51) - 1, 1 << 52, math.MaxInt64, math.MinInt64}
	for i := 0; i < 2000; i++ {
		ds = append(ds, int64(rng.Uint64())>>rng.Intn(64))
	}
	for _, d := range ds {
		tb := uint64(d) + magicBits
		inRange := d >= -(1<<51) && d < 1<<51
		if miss := (tb^magicBits)&l.MagicMiss != 0; miss == inRange {
			t.Fatalf("d=%d: conversion guard %v, in range %v", d, miss, inRange)
		}
		if got := math.Float64frombits(tb) - l.Magic; inRange && got != float64(d) {
			t.Fatalf("d=%d: lane conversion %v", d, got)
		}
	}
}
