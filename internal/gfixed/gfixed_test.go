package gfixed

import (
	"math"
	"testing"
	"testing/quick"

	"grape6/internal/xrand"
)

func TestGrape6FormatValid(t *testing.T) {
	if err := Grape6.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadFormats(t *testing.T) {
	bad := []Format{
		{PosFrac: 0, MantBits: 24, AccumFrac: 40},
		{PosFrac: 63, MantBits: 24, AccumFrac: 40},
		{PosFrac: 44, MantBits: 1, AccumFrac: 40},
		{PosFrac: 44, MantBits: 54, AccumFrac: 40},
		{PosFrac: 44, MantBits: 24, AccumFrac: 0},
		{PosFrac: 44, MantBits: 24, AccumFrac: 63},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("case %d: accepted invalid format %+v", i, f)
		}
	}
}

func TestFixedRoundTrip(t *testing.T) {
	f := Grape6
	for _, x := range []float64{0, 1, -1, 0.5, 1.0 / 3, -math.Pi, 1e-10, 524287.9} {
		v, err := f.ToFixed(x)
		if err != nil {
			t.Fatalf("ToFixed(%v): %v", x, err)
		}
		back := f.FromFixed(v)
		if math.Abs(back-x) > f.PosResolution()/2+1e-18 {
			t.Errorf("round trip %v → %v, error %v > resolution/2", x, back, math.Abs(back-x))
		}
	}
}

func TestFixedRange(t *testing.T) {
	f := Grape6
	if _, err := f.ToFixed(f.PosRange() * 1.01); err != ErrPosRange {
		t.Error("accepted out-of-range positive position")
	}
	if _, err := f.ToFixed(-f.PosRange() * 1.01); err != ErrPosRange {
		t.Error("accepted out-of-range negative position")
	}
	if _, err := f.ToFixed(math.NaN()); err != ErrPosRange {
		t.Error("accepted NaN")
	}
	if _, err := f.ToFixed(math.Inf(1)); err != ErrPosRange {
		t.Error("accepted +Inf")
	}
	// Just inside must work.
	if _, err := f.ToFixed(f.PosRange() * 0.999); err != nil {
		t.Errorf("rejected in-range position: %v", err)
	}
}

func TestDiffExactness(t *testing.T) {
	// The whole point of fixed-point positions: differences of quantized
	// coordinates are exact, even for nearby large coordinates.
	f := Grape6
	delta := math.Ldexp(1, -40) // a multiple of the quantum, representable next to 1000.0
	a, _ := f.ToFixed(1000.0)
	b, _ := f.ToFixed(1000.0 + delta)
	d := f.DiffToFloat(a, b)
	if d != delta {
		t.Errorf("diff = %v, want exactly %v", d, delta)
	}
}

func TestRoundMantissa(t *testing.T) {
	// 1 + 2^-30 rounds to 1 with 24-bit mantissa.
	if got := RoundMantissa(1+math.Ldexp(1, -30), 24); got != 1 {
		t.Errorf("RoundMantissa = %v", got)
	}
	// Identity cases.
	if got := RoundMantissa(1.5, 53); got != 1.5 {
		t.Errorf("53-bit round changed value: %v", got)
	}
	if got := RoundMantissa(0, 24); got != 0 {
		t.Errorf("zero changed: %v", got)
	}
	if !math.IsNaN(RoundMantissa(math.NaN(), 24)) {
		t.Error("NaN not preserved")
	}
	if !math.IsInf(RoundMantissa(math.Inf(-1), 24), -1) {
		t.Error("-Inf not preserved")
	}
	// Round-to-even at the halfway point: with 2 bits, 1.25 is halfway
	// between 1.0 and 1.5; even mantissa is 1.0.
	if got := RoundMantissa(1.25, 2); got != 1.0 {
		t.Errorf("ties-to-even: %v, want 1.0", got)
	}
	// 1.75 is halfway between 1.5 and 2.0 with 2 bits; even is 2.0.
	if got := RoundMantissa(1.75, 2); got != 2.0 {
		t.Errorf("ties-to-even: %v, want 2.0", got)
	}
}

func TestPropRoundMantissaError(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 || math.Abs(x) > 1e300 || math.Abs(x) < 1e-300 {
			return true
		}
		r := RoundMantissa(x, 24)
		// Relative error bounded by 2^-24.
		return math.Abs(r-x) <= math.Abs(x)*math.Ldexp(1, -24)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPropRoundMantissaIdempotent(t *testing.T) {
	f := func(x float64, b uint8) bool {
		bits := uint(b%50) + 2
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		r := RoundMantissa(x, bits)
		return RoundMantissa(r, bits) == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAccumBasic(t *testing.T) {
	a := Grape6.MakeAccum(4)
	a.Add(1.0)
	a.Add(2.5)
	a.Add(-0.5)
	if got := a.Value(); math.Abs(got-3.0) > 1e-9 {
		t.Errorf("accum value = %v, want 3", got)
	}
	if a.Overflow {
		t.Error("unexpected overflow")
	}
}

func TestAccumQuantization(t *testing.T) {
	// The quantum is 2^(Exp-AccumFrac); values below half a quantum vanish.
	f := Format{PosFrac: 44, MantBits: 24, AccumFrac: 10}
	a := f.MakeAccum(0)
	quantum := math.Ldexp(1, -10)
	a.Add(quantum / 4)
	if a.Value() != 0 {
		t.Errorf("sub-quantum contribution survived: %v", a.Value())
	}
	a.Add(quantum)
	if a.Value() != quantum {
		t.Errorf("one-quantum add = %v", a.Value())
	}
}

func TestAccumOrderIndependence(t *testing.T) {
	// THE GRAPE-6 property (Section 3.4): identical bits regardless of
	// summation order.
	rng := xrand.New(99)
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = rng.Uniform(-1, 1) * math.Ldexp(1, rng.Intn(20)-10)
	}
	exp := ExponentFor(100, 8)

	forward := Grape6.MakeAccum(exp)
	for _, v := range vals {
		forward.Add(v)
	}
	backward := Grape6.MakeAccum(exp)
	for i := len(vals) - 1; i >= 0; i-- {
		backward.Add(vals[i])
	}
	shuffled := Grape6.MakeAccum(exp)
	perm := rng.Perm(len(vals))
	for _, i := range perm {
		shuffled.Add(vals[i])
	}
	if forward.Sum != backward.Sum || forward.Sum != shuffled.Sum {
		t.Errorf("order-dependent sums: %d %d %d", forward.Sum, backward.Sum, shuffled.Sum)
	}
}

func TestAccumPartitionInvariance(t *testing.T) {
	// Splitting the j-set across "chips" and merging partial accumulators
	// must give identical bits to a single accumulation — the property
	// that makes GRAPE-6 results machine-size-independent.
	rng := xrand.New(7)
	vals := make([]float64, 512)
	for i := range vals {
		vals[i] = rng.Norm() * 0.01
	}
	exp := ExponentFor(1, 8)

	single := Grape6.MakeAccum(exp)
	for _, v := range vals {
		single.Add(v)
	}

	for _, parts := range []int{2, 3, 8, 32, 128} {
		chips := make([]Accum, parts)
		for c := range chips {
			chips[c] = Grape6.MakeAccum(exp)
		}
		for i, v := range vals {
			chips[i%parts].Add(v)
		}
		total := Grape6.MakeAccum(exp)
		for c := range chips {
			total.Merge(&chips[c])
		}
		if total.Sum != single.Sum {
			t.Errorf("%d-way partition: sum %d != single %d", parts, total.Sum, single.Sum)
		}
	}
}

func TestPropPartitionInvariance(t *testing.T) {
	f := func(seed uint32, parts uint8) bool {
		p := int(parts)%7 + 2
		rng := xrand.New(uint64(seed))
		n := 64
		exp := 8
		single := Grape6.MakeAccum(exp)
		chips := make([]Accum, p)
		for c := range chips {
			chips[c] = Grape6.MakeAccum(exp)
		}
		for i := 0; i < n; i++ {
			v := rng.Norm()
			single.Add(v)
			chips[rng.Intn(p)].Add(v)
		}
		total := Grape6.MakeAccum(exp)
		for c := range chips {
			total.Merge(&chips[c])
		}
		return total.Sum == single.Sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAccumOverflowOnLargeContribution(t *testing.T) {
	a := Grape6.MakeAccum(0)
	a.Add(math.Ldexp(1, 30)) // far beyond exponent-0 block range
	if !a.Overflow {
		t.Error("large contribution did not set overflow")
	}
}

func TestAccumOverflowOnSumGrowth(t *testing.T) {
	f := Format{PosFrac: 44, MantBits: 24, AccumFrac: 60}
	a := f.MakeAccum(0)
	for i := 0; i < 16 && !a.Overflow; i++ {
		a.Add(0.4)
	}
	if !a.Overflow {
		t.Error("sum growth did not overflow 2^62 range")
	}
}

func TestAccumOverflowOnNaN(t *testing.T) {
	a := Grape6.MakeAccum(0)
	a.Add(math.NaN())
	if !a.Overflow {
		t.Error("NaN did not set overflow")
	}
}

func TestMergePropagatesOverflow(t *testing.T) {
	a := Grape6.MakeAccum(0)
	b := Grape6.MakeAccum(0)
	b.Overflow = true
	a.Merge(&b)
	if !a.Overflow {
		t.Error("merge did not propagate overflow")
	}
}

func TestMergeMismatchedExponentsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("merge of mismatched exponents did not panic")
		}
	}()
	a, b := Grape6.MakeAccum(0), Grape6.MakeAccum(1)
	a.Merge(&b)
}

func TestAccumReset(t *testing.T) {
	a := Grape6.MakeAccum(2)
	a.Add(1)
	a.Overflow = true
	a.Reset()
	if a.Sum != 0 || a.Overflow || a.Exp != 2 {
		t.Errorf("reset failed: %+v", a)
	}
}

func TestAddCheck(t *testing.T) {
	if _, ok := addCheck(math.MaxInt64, 1); ok {
		t.Error("positive overflow not detected")
	}
	if _, ok := addCheck(math.MinInt64, -1); ok {
		t.Error("negative overflow not detected")
	}
	if s, ok := addCheck(math.MaxInt64, math.MinInt64); !ok || s != -1 {
		t.Errorf("mixed-sign add: %d %v", s, ok)
	}
	if s, ok := addCheck(5, -3); !ok || s != 2 {
		t.Errorf("simple add: %d %v", s, ok)
	}
}

func TestExponentFor(t *testing.T) {
	// 1.0 = 0.5 × 2^1 → exponent 1 + headroom.
	if got := ExponentFor(1.0, 8); got != 9 {
		t.Errorf("ExponentFor(1, 8) = %d", got)
	}
	if got := ExponentFor(0, 8); got != 8 {
		t.Errorf("ExponentFor(0, 8) = %d", got)
	}
	// Larger values get larger exponents.
	if ExponentFor(1e6, 4) <= ExponentFor(1.0, 4) {
		t.Error("exponent not monotone in magnitude")
	}
}

func TestAccumAccuracy(t *testing.T) {
	// With the Grape6 format the accumulated value should match the exact
	// float64 sum to ~2^-40 relative of the block scale.
	rng := xrand.New(12)
	exp := ExponentFor(10, 6)
	a := Grape6.MakeAccum(exp)
	var exact float64
	for i := 0; i < 10000; i++ {
		v := rng.Norm() * 0.01
		a.Add(v)
		exact += v
	}
	quantum := math.Ldexp(1, exp-int(Grape6.AccumFrac))
	if math.Abs(a.Value()-exact) > 10000*quantum {
		t.Errorf("accumulated %v vs exact %v, quantum %v", a.Value(), exact, quantum)
	}
}

func BenchmarkAccumAdd(b *testing.B) {
	a := Grape6.MakeAccum(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Add(0.123456789)
		if a.Overflow {
			a.Reset()
		}
	}
}

func BenchmarkRoundMantissa(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s += RoundMantissa(math.Pi*float64(i), 24)
	}
	_ = s
}
