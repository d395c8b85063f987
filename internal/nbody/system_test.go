package nbody

import (
	"math"
	"testing"
	"testing/quick"

	"grape6/internal/vec"
)

// twoBody returns a simple equal-mass two-body system separated by d along
// x, each with mass m, at rest.
func twoBody(m, d float64) *System {
	s := New(2)
	s.Mass[0], s.Mass[1] = m, m
	s.Pos[0] = vec.New(-d/2, 0, 0)
	s.Pos[1] = vec.New(d/2, 0, 0)
	return s
}

func TestNewIDs(t *testing.T) {
	s := New(5)
	for i, id := range s.ID {
		if id != i {
			t.Errorf("ID[%d] = %d", i, id)
		}
	}
	if err := s.Validate(); err != nil {
		t.Errorf("fresh system invalid: %v", err)
	}
}

func TestCloneIndependent(t *testing.T) {
	s := twoBody(1, 2)
	c := s.Clone()
	c.Pos[0] = vec.New(99, 0, 0)
	c.Mass[1] = 42
	if s.Pos[0].X == 99 || s.Mass[1] == 42 {
		t.Error("Clone shares storage with original")
	}
}

func TestSubset(t *testing.T) {
	s := New(4)
	for i := range s.Mass {
		s.Mass[i] = float64(i + 1)
		s.Pos[i] = vec.New(float64(i), 0, 0)
	}
	sub := s.Subset([]int{3, 1})
	if sub.N != 2 {
		t.Fatalf("Subset N = %d", sub.N)
	}
	if sub.ID[0] != 3 || sub.ID[1] != 1 {
		t.Errorf("Subset IDs = %v", sub.ID)
	}
	if sub.Mass[0] != 4 || sub.Mass[1] != 2 {
		t.Errorf("Subset masses = %v", sub.Mass)
	}
}

func TestTotalMass(t *testing.T) {
	s := twoBody(0.5, 1)
	if got := s.TotalMass(); got != 1 {
		t.Errorf("TotalMass = %v", got)
	}
}

func TestCenterOfMass(t *testing.T) {
	s := New(2)
	s.Mass[0], s.Mass[1] = 1, 3
	s.Pos[0] = vec.New(0, 0, 0)
	s.Pos[1] = vec.New(4, 0, 0)
	if got := s.CenterOfMass(); got != vec.New(3, 0, 0) {
		t.Errorf("CenterOfMass = %v", got)
	}
}

func TestCenterOnOrigin(t *testing.T) {
	s := New(3)
	for i := range s.Mass {
		s.Mass[i] = 1
		s.Pos[i] = vec.New(float64(i)+1, 2, 3)
		s.Vel[i] = vec.New(0, float64(i), 0)
	}
	s.CenterOnOrigin()
	if com := s.CenterOfMass(); com.MaxAbs() > 1e-14 {
		t.Errorf("COM after centering = %v", com)
	}
	if cov := s.CenterOfMassVelocity(); cov.MaxAbs() > 1e-14 {
		t.Errorf("COM velocity after centering = %v", cov)
	}
}

func TestKineticEnergy(t *testing.T) {
	s := New(1)
	s.Mass[0] = 2
	s.Vel[0] = vec.New(3, 0, 0)
	if got := s.KineticEnergy(); got != 9 {
		t.Errorf("KineticEnergy = %v", got)
	}
}

func TestPotentialEnergyTwoBody(t *testing.T) {
	s := twoBody(1, 2)
	// W = -m1 m2 / r = -1/2 without softening.
	if got := s.PotentialEnergy(0); math.Abs(got+0.5) > 1e-15 {
		t.Errorf("PotentialEnergy = %v, want -0.5", got)
	}
	// With softening ε = 2: W = -1/sqrt(4+4).
	want := -1 / math.Sqrt(8)
	if got := s.PotentialEnergy(2); math.Abs(got-want) > 1e-15 {
		t.Errorf("softened PotentialEnergy = %v, want %v", got, want)
	}
}

func TestPotentialEnergyFromPotMatchesDirect(t *testing.T) {
	s := New(3)
	pos := []vec.V3{vec.New(0, 0, 0), vec.New(1, 0, 0), vec.New(0, 2, 0)}
	for i := range pos {
		s.Mass[i] = float64(i + 1)
		s.Pos[i] = pos[i]
	}
	eps := 0.1
	// Fill per-particle potentials by direct summation.
	for i := 0; i < 3; i++ {
		var p float64
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			p -= s.Mass[j] / math.Sqrt(s.Pos[i].Dist2(s.Pos[j])+eps*eps)
		}
		s.Pot[i] = p
	}
	a := s.PotentialEnergyFromPot()
	b := s.PotentialEnergy(eps)
	if math.Abs(a-b) > 1e-14 {
		t.Errorf("PotentialEnergyFromPot = %v, direct = %v", a, b)
	}
}

func TestAngularMomentum(t *testing.T) {
	s := New(1)
	s.Mass[0] = 2
	s.Pos[0] = vec.New(1, 0, 0)
	s.Vel[0] = vec.New(0, 3, 0)
	if got := s.AngularMomentum(); got != vec.New(0, 0, 6) {
		t.Errorf("AngularMomentum = %v", got)
	}
}

func TestVirialRatioCircular(t *testing.T) {
	// Two bodies in a circular orbit: exactly virialised, |2T/W| = 1.
	s := twoBody(0.5, 1)
	// v_circ for reduced problem: each orbits COM at r=0.5 with
	// v² = G m_other · ... — easier: total T = 1/2 |W| for circular orbit.
	w := s.PotentialEnergy(0)
	vtot := math.Sqrt(-w / 1.0) // T = Σ ½ m v² with both speeds equal v/√2 each... set directly:
	// Set speeds so that T = -W/2.
	speed := math.Sqrt(-w / 2 / (0.5 * 0.5 * 2)) // T = 2 × ½ m v² = m v² = 0.5 v²
	s.Vel[0] = vec.New(0, speed, 0)
	s.Vel[1] = vec.New(0, -speed, 0)
	if got := s.VirialRatio(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("VirialRatio = %v, want 1", got)
	}
	_ = vtot
}

func TestValidateCatchesBadMass(t *testing.T) {
	s := New(2)
	s.Mass[1] = -1
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted negative mass")
	}
	s.Mass[1] = math.NaN()
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted NaN mass")
	}
}

func TestValidateCatchesBadPosition(t *testing.T) {
	s := New(2)
	s.Pos[0] = vec.New(math.Inf(1), 0, 0)
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted infinite position")
	}
}

func TestValidateCatchesBadTime(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := New(2)
		s.Time[1] = v
		if err := s.Validate(); err == nil {
			t.Errorf("Validate accepted particle time %v", v)
		}
	}
}

func TestValidateCatchesLengthMismatch(t *testing.T) {
	s := New(2)
	s.Pot = s.Pot[:1]
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted length mismatch")
	}
}

func TestMinTime(t *testing.T) {
	s := New(3)
	s.Time = []float64{0, 0.5, 0.25}
	s.Step = []float64{1, 0.125, 0.25}
	// next times: 1, 0.625, 0.5 → min 0.5
	if got := s.MinTime(); got != 0.5 {
		t.Errorf("MinTime = %v", got)
	}
	if got := New(0).MinTime(); got != 0 {
		t.Errorf("MinTime(empty) = %v", got)
	}
}

// Property: Subset of all indices preserves everything.
func TestPropSubsetIdentity(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed)%16 + 2
		s := New(n)
		for i := 0; i < n; i++ {
			s.Mass[i] = float64(i + 1)
			s.Pos[i] = vec.New(float64(i), float64(i*i), -float64(i))
			s.Time[i] = float64(i) / 8
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sub := s.Subset(idx)
		for i := 0; i < n; i++ {
			if sub.Mass[i] != s.Mass[i] || sub.Pos[i] != s.Pos[i] || sub.Time[i] != s.Time[i] || sub.ID[i] != s.ID[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: kinetic energy is invariant under centering only when the COM
// velocity is already zero; and centering always zeroes the COM.
func TestPropCenteringZeroesCOM(t *testing.T) {
	f := func(seed int64) bool {
		n := 5
		s := New(n)
		x := uint64(seed)
		next := func() float64 {
			x = x*6364136223846793005 + 1442695040888963407
			return float64(int64(x>>12))/float64(1<<51) - 1
		}
		for i := 0; i < n; i++ {
			s.Mass[i] = math.Abs(next()) + 0.1
			s.Pos[i] = vec.New(next(), next(), next())
			s.Vel[i] = vec.New(next(), next(), next())
		}
		s.CenterOnOrigin()
		return s.CenterOfMass().MaxAbs() < 1e-12 && s.CenterOfMassVelocity().MaxAbs() < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
