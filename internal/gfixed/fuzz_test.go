package gfixed

import (
	"math"
	"testing"
)

// The fuzz targets are differential: the optimized hot-path entry points
// (Accum.Add's 2^52 magic-constant trick) must stay bit-identical to their
// straightforward references for EVERY input, not just the corpus the unit
// tests enumerate. The inlinable primitives (RoundTame, Untame, AddTame)
// are partial: each must agree with its exact counterpart wherever its own
// guard says it may be used, and the guard must fire on every input where
// it would not — the "caller must fall back" class. Seeds come from
// interestingFloats(), which pins the known cliffs: the 2^51/2^52
// integrality boundaries, the 2^61/2^62 saturation boundaries, the tame
// class's edges, subnormals, ties, infinities and NaN. verify.sh runs each
// target with -fuzztime=10s.

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// FuzzRound checks Format.Round and Rounder.Round against RoundMantissa
// across all mantissa widths, plus idempotence of the rounding itself.
func FuzzRound(f *testing.F) {
	for _, x := range interestingFloats() {
		for _, bits := range []uint{2, 8, 24, 32, 52, 53} {
			f.Add(math.Float64bits(x), bits)
		}
	}
	// Appended after the original seeds so their numbers keep their
	// inputs: RoundTame's domain top 2^(1023-s) and its predecessor for
	// s = 0, 21 and 51. The body maps the raw width 51-s to 53-s.
	for _, s := range []int{0, 21, 51} {
		top := math.Ldexp(1, 1023-s)
		for _, x := range []float64{top, math.Nextafter(top, 0), -top, -math.Nextafter(top, 0)} {
			f.Add(math.Float64bits(x), uint(53-s-2))
		}
	}
	f.Fuzz(func(t *testing.T, xb uint64, bits uint) {
		bits = 2 + bits%52 // valid widths [2, 53]
		x := math.Float64frombits(xb)
		fm := Format{PosFrac: 44, MantBits: bits, AccumFrac: 40}

		want := RoundMantissa(x, bits)
		if got := fm.Round(x); !sameBits(got, want) {
			t.Fatalf("bits=%d x=%#x: Format.Round %#x != RoundMantissa %#x",
				bits, xb, math.Float64bits(got), math.Float64bits(want))
		}
		if got := fm.Rounder().Round(x); !sameBits(got, want) {
			t.Fatalf("bits=%d x=%#x: Rounder.Round %#x != RoundMantissa %#x",
				bits, xb, math.Float64bits(got), math.Float64bits(want))
		}
		// Rounding is idempotent: a value already on the short-mantissa
		// grid must pass through unchanged.
		if again := RoundMantissa(want, bits); !sameBits(again, want) {
			t.Fatalf("bits=%d x=%#x: rounding not idempotent: %#x -> %#x",
				bits, xb, math.Float64bits(want), math.Float64bits(again))
		}
		// Sign and zero/NaN class are preserved.
		if math.Signbit(want) != math.Signbit(x) && !math.IsNaN(x) {
			t.Fatalf("bits=%d x=%#x: sign flipped to %#x", bits, xb, math.Float64bits(want))
		}

		// RoundTame is exact on ±0 and on normals below 2^(1023-s); NaN,
		// ±Inf, subnormals and magnitudes from 2^(1023-s) up are the
		// fall-back class, and Untame must flag every one of them.
		mag := math.Abs(x)
		fallBack := math.IsNaN(x) || (mag != 0 && mag < math.Ldexp(1, -1022)) ||
			mag >= math.Ldexp(1, 1023-int(53-bits))
		if got := fm.Rounder().RoundTame(x); !fallBack && !sameBits(got, want) {
			t.Fatalf("bits=%d x=%#x: RoundTame %#x != Round %#x outside the fall-back class",
				bits, xb, math.Float64bits(got), math.Float64bits(want))
		}
		tame := mag == 0 || (mag >= math.Ldexp(1, -TameExp) && mag < math.Ldexp(1, TameExp))
		if (Untame(x) == 0) != tame {
			t.Fatalf("x=%#x: Untame %#x, want tame=%v", xb, Untame(x), tame)
		}
		if fallBack && tame {
			t.Fatalf("x=%#x: in RoundTame's fall-back class yet tame", xb)
		}
	})
}

// FuzzAccumAdd streams three contributions through the magic-constant
// Add and the math.RoundToEven reference in lockstep, then checks the
// partition-invariance property (Section 3.4): splitting the stream
// across two accumulators and merging is bit-identical to sequential
// accumulation whenever nothing overflowed.
func FuzzAccumAdd(f *testing.F) {
	for _, v := range interestingFloats() {
		f.Add(4, math.Float64bits(v), math.Float64bits(v/3), math.Float64bits(-v))
		f.Add(80, math.Float64bits(v), math.Float64bits(1.0), math.Float64bits(v*0.5))
		f.Add(-20, math.Float64bits(v), math.Float64bits(v), math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, exp int, b1, b2, b3 uint64) {
		exp %= 2000 // beyond this Ldexp saturates anyway; keep shrinks readable
		vs := [3]float64{
			math.Float64frombits(b1),
			math.Float64frombits(b2),
			math.Float64frombits(b3),
		}

		a := Grape6.MakeAccum(exp)
		r := Grape6.MakeAccum(exp)
		for i, v := range vs {
			checkAddTame(t, a, v)
			a.Add(v)
			refAdd(&r, v)
			if a.Sum != r.Sum || a.Overflow != r.Overflow {
				t.Fatalf("exp=%d step=%d v=%#x: Add (sum=%d ovf=%v) != reference (sum=%d ovf=%v)",
					exp, i, math.Float64bits(v), a.Sum, a.Overflow, r.Sum, r.Overflow)
			}
		}

		p1 := Grape6.MakeAccum(exp)
		p2 := Grape6.MakeAccum(exp)
		p1.Add(vs[0])
		p2.Add(vs[1])
		p2.Add(vs[2])
		p1.Merge(&p2)
		if !a.Overflow && !p1.Overflow && p1.Sum != a.Sum {
			t.Fatalf("exp=%d vs=%#x,%#x,%#x: partition variance: merged %d != sequential %d",
				exp, b1, b2, b3, p1.Sum, a.Sum)
		}
	})
}

// checkAddTame runs AddTame for one contribution next to the exact Add,
// from whatever sum the accumulator holds, and checks both directions of
// the contract: a hit is exactly what Add does, and an ordinary step — a
// sum, a quantised contribution and a result well inside the working
// range — is never sent to the fall-back.
func checkAddTame(t *testing.T, a Accum, v float64) {
	t.Helper()
	s, miss := AddTame(a.Sum, v, a.Scale())
	want := a
	want.Add(v)
	if miss == 0 && (want.Overflow != a.Overflow || want.Sum != s) {
		t.Fatalf("sum=%d v=%#x scale=%g: AddTame hit with %d, Add gives sum=%d ovf=%v",
			a.Sum, math.Float64bits(v), a.Scale(), s, want.Sum, want.Overflow)
	}
	within := func(x int64) bool { return x > -(1<<60) && x < 1<<60 }
	if ordinary := math.Abs(v*a.Scale()) < 1<<50 && within(a.Sum) && within(want.Sum); ordinary && miss != 0 {
		t.Fatalf("sum=%d v=%#x scale=%g: AddTame missed (%#x) on an ordinary step",
			a.Sum, math.Float64bits(v), a.Scale(), miss)
	}
}

// FuzzAddTame drives AddTame from an arbitrary starting sum and scale —
// FuzzAccumAdd only reaches the sums three contributions from zero can
// build — including accumulators at and past the saturation bound, as
// Merge can leave them.
func FuzzAddTame(f *testing.F) {
	for _, sum := range []int64{0, 1, -1, 1<<61 - 1, 1 << 61, -(1 << 61), -(1 << 61) - 1, 1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64} {
		for _, v := range []float64{0, 1, -1, 0.5, 1.5, -2.5, math.Ldexp(1, 51), -math.Ldexp(1, 51), math.Ldexp(1, 61), math.Inf(1), math.NaN()} {
			f.Add(sum, math.Float64bits(v), 40)
			f.Add(sum, math.Float64bits(v), -1500)
		}
	}
	f.Fuzz(func(t *testing.T, sum int64, vb uint64, exp int) {
		a := Grape6.MakeAccum(exp % 2000)
		a.Sum = sum
		checkAddTame(t, a, math.Float64frombits(vb))
	})
}
