package direct

import (
	"math"
	"testing"

	"grape6/internal/model"
	"grape6/internal/vec"
	"grape6/internal/xrand"
)

func skipWithoutAVX2(t testing.TB) {
	if !avx2 {
		t.Skip("this CPU has no AVX2: EvalAllInto runs EvalSkip per i-particle, nothing to compare")
	}
}

// sameBits reports whether two float64s have the same bits, or are both
// NaN when nanClass is set.
func sameBits(a, b float64, nanClass bool) bool {
	return math.Float64bits(a) == math.Float64bits(b) || nanClass && a != a && b != b
}

// checkQuad compares EvalAllInto (four i-particles per broadcast j) with
// EvalSkip per i-particle on every field.
func checkQuad(t *testing.T, name string, xs, vs []vec.V3, js JSet, eps float64, selfSet, nanClass bool) {
	t.Helper()
	got := EvalAllInto(make([]Force, len(xs)), xs, vs, js, eps, selfSet)
	want := make([]Force, len(xs))
	evalEach(want, xs, vs, js, eps, selfSet, 0)
	for i := range want {
		g, w := got[i], want[i]
		pairs := [...][2]float64{
			{g.Acc.X, w.Acc.X}, {g.Acc.Y, w.Acc.Y}, {g.Acc.Z, w.Acc.Z},
			{g.Jerk.X, w.Jerk.X}, {g.Jerk.Y, w.Jerk.Y}, {g.Jerk.Z, w.Jerk.Z},
			{g.Pot, w.Pot}, {g.NND2, w.NND2},
		}
		same := g.NN == w.NN
		for _, p := range pairs {
			same = same && sameBits(p[0], p[1], nanClass)
		}
		if !same {
			t.Fatalf("%s: i=%d of %d: quad %+v, EvalSkip %+v", name, i, len(xs), g, w)
		}
	}
}

func TestEvalAllQuadMatchesEvalSkip(t *testing.T) {
	skipWithoutAVX2(t)
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 65, 700} {
		s := model.Plummer(n, xrand.New(uint64(30+n)))
		js := jsetFrom(s.Mass, s.Pos, s.Vel)
		for _, eps := range []float64{0, 1e-6, 1.0 / 64} {
			for _, selfSet := range []bool{true, false} {
				checkQuad(t, "plummer", s.Pos, s.Vel, js, eps, selfSet, false)
			}
		}
	}
}

func TestEvalAllQuadEdgeInputs(t *testing.T) {
	skipWithoutAVX2(t)
	inf := math.Inf(1)
	cases := []struct {
		name string
		// edit changes a fresh 9-particle Plummer j-set and the i-set xs
		// (a copy of its positions).
		edit func(js JSet, xs []vec.V3)
	}{
		{"zero mass", func(js JSet, xs []vec.V3) { js.Mass[2] = 0 }},
		{"coincident", func(js JSet, xs []vec.V3) { js.Pos[4] = js.Pos[3]; xs[4] = xs[3] }},
		{"NaN i", func(js JSet, xs []vec.V3) { xs[1].X = math.NaN() }},
		{"+1e300 i", func(js JSet, xs []vec.V3) { xs[2] = vec.New(1e300, 0, 0) }},
		{"-1e300 i", func(js JSet, xs []vec.V3) { xs[2].Z = -1e300 }},
		{"+Inf i", func(js JSet, xs []vec.V3) { xs[3].Y = inf }},
		{"-Inf i", func(js JSet, xs []vec.V3) { xs[5].Z = -inf }},
		{"Inf j", func(js JSet, xs []vec.V3) { js.Pos[6].X = inf }},
		{"NaN j velocity", func(js JSet, xs []vec.V3) { js.Vel[7].Y = math.NaN() }},
		{"subnormal separation", func(js JSet, xs []vec.V3) {
			js.Pos[7] = js.Pos[6].Add(vec.New(5e-324, 0, 0))
			xs[8] = js.Pos[6].Add(vec.New(0, 0, -1e-160))
		}},
	}
	for _, c := range cases {
		s := model.Plummer(9, xrand.New(40))
		js := jsetFrom(s.Mass, s.Pos, s.Vel)
		xs := append([]vec.V3(nil), s.Pos...)
		c.edit(js, xs)
		for _, eps := range []float64{0, 1e-6, 1.0 / 64} {
			for _, selfSet := range []bool{true, false} {
				checkQuad(t, c.name, xs, s.Vel, js, eps, selfSet, false)
			}
		}
	}
}

// FuzzEvalAllQuad plants one fuzzed particle (position, velocity, mass)
// at index k of a small Plummer set, in the i-set and the j-set, and
// compares every force with EvalSkip's. Two NaNs match whatever their
// payloads: where two NaNs of different payloads meet, x86 keeps the
// first operand's, and which operand EvalSkip puts first is the
// compiler's choice, not the language's.
func FuzzEvalAllQuad(f *testing.F) {
	f.Add(uint8(5), uint8(2), 0.0, 1.0, 0.5, -0.5, 0.1, 0.0, -0.1, 1e-3, true)
	f.Add(uint8(1), uint8(0), 1.0/64, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, false)
	f.Fuzz(func(t *testing.T, n, k uint8, eps, x, y, z, vx, vy, vz, m float64, selfSet bool) {
		skipWithoutAVX2(t)
		size := int(n)%40 + 1
		s := model.Plummer(size, xrand.New(uint64(n)))
		i := int(k) % size
		s.Pos[i], s.Vel[i], s.Mass[i] = vec.New(x, y, z), vec.New(vx, vy, vz), m
		checkQuad(t, "fuzz", s.Pos, s.Vel, jsetFrom(s.Mass, s.Pos, s.Vel), eps, selfSet, true)
	})
}
