// Package nbody defines the particle-system representation shared by the
// integrator, the GRAPE emulator and the parallel algorithms.
//
// Storage is struct-of-arrays: the Hermite scheme and the emulated hardware
// both stream over per-quantity arrays (positions, velocities, forces,
// derivatives), and SoA keeps those streams dense. Each particle carries
// the full Hermite state: position, velocity, acceleration, jerk, and the
// snap/crackle estimates produced by the corrector, plus its individual
// time and timestep.
package nbody

import (
	"fmt"
	"math"

	"grape6/internal/vec"
)

// System holds N particles in struct-of-arrays layout.
type System struct {
	N int

	Mass []float64
	Pos  []vec.V3
	Vel  []vec.V3

	// Hermite state: force and derivatives at each particle's own time.
	Acc   []vec.V3 // acceleration a
	Jerk  []vec.V3 // da/dt
	Snap  []vec.V3 // d²a/dt², reconstructed by the corrector
	Crack []vec.V3 // d³a/dt³, reconstructed by the corrector
	Pot   []float64

	// Individual-timestep bookkeeping.
	Time []float64 // time at which each particle's state is valid
	Step []float64 // current individual timestep (power of two)

	// ID is a stable particle identity, preserved across redistribution in
	// the parallel algorithms.
	ID []int
}

// New allocates a zeroed system of n particles with IDs 0..n-1.
func New(n int) *System {
	s := &System{
		N:     n,
		Mass:  make([]float64, n),
		Pos:   make([]vec.V3, n),
		Vel:   make([]vec.V3, n),
		Acc:   make([]vec.V3, n),
		Jerk:  make([]vec.V3, n),
		Snap:  make([]vec.V3, n),
		Crack: make([]vec.V3, n),
		Pot:   make([]float64, n),
		Time:  make([]float64, n),
		Step:  make([]float64, n),
		ID:    make([]int, n),
	}
	for i := range s.ID {
		s.ID[i] = i
	}
	return s
}

// Clone returns a deep copy of the system.
func (s *System) Clone() *System {
	c := New(s.N)
	copy(c.Mass, s.Mass)
	copy(c.Pos, s.Pos)
	copy(c.Vel, s.Vel)
	copy(c.Acc, s.Acc)
	copy(c.Jerk, s.Jerk)
	copy(c.Snap, s.Snap)
	copy(c.Crack, s.Crack)
	copy(c.Pot, s.Pot)
	copy(c.Time, s.Time)
	copy(c.Step, s.Step)
	copy(c.ID, s.ID)
	return c
}

// Subset returns a new system containing the particles at the given
// indices, in order. Particle IDs are preserved.
func (s *System) Subset(idx []int) *System {
	c := New(len(idx))
	for k, i := range idx {
		c.CopyParticle(k, s, i)
	}
	return c
}

// CopyParticle overwrites slot k of s with particle i of src: the full
// Hermite state, mass and id.
func (s *System) CopyParticle(k int, src *System, i int) {
	s.Mass[k] = src.Mass[i]
	s.Pos[k] = src.Pos[i]
	s.Vel[k] = src.Vel[i]
	s.Acc[k] = src.Acc[i]
	s.Jerk[k] = src.Jerk[i]
	s.Snap[k] = src.Snap[i]
	s.Crack[k] = src.Crack[i]
	s.Pot[k] = src.Pot[i]
	s.Time[k] = src.Time[i]
	s.Step[k] = src.Step[i]
	s.ID[k] = src.ID[i]
}

// TotalMass returns the sum of particle masses.
func (s *System) TotalMass() float64 {
	var m float64
	for _, mi := range s.Mass {
		m += mi
	}
	return m
}

// CenterOfMass returns the mass-weighted mean position.
func (s *System) CenterOfMass() vec.V3 {
	var com vec.V3
	var m float64
	for i := 0; i < s.N; i++ {
		com = com.AddScaled(s.Mass[i], s.Pos[i])
		m += s.Mass[i]
	}
	if m == 0 {
		return vec.Zero
	}
	return com.Scale(1 / m)
}

// CenterOfMassVelocity returns the mass-weighted mean velocity.
func (s *System) CenterOfMassVelocity() vec.V3 {
	var cov vec.V3
	var m float64
	for i := 0; i < s.N; i++ {
		cov = cov.AddScaled(s.Mass[i], s.Vel[i])
		m += s.Mass[i]
	}
	if m == 0 {
		return vec.Zero
	}
	return cov.Scale(1 / m)
}

// CenterOnOrigin translates positions and velocities so that the centre of
// mass is at rest at the origin.
func (s *System) CenterOnOrigin() {
	com := s.CenterOfMass()
	cov := s.CenterOfMassVelocity()
	for i := 0; i < s.N; i++ {
		s.Pos[i] = s.Pos[i].Sub(com)
		s.Vel[i] = s.Vel[i].Sub(cov)
	}
}

// KineticEnergy returns Σ ½ m v².
func (s *System) KineticEnergy() float64 {
	var t float64
	for i := 0; i < s.N; i++ {
		t += 0.5 * s.Mass[i] * s.Vel[i].Norm2()
	}
	return t
}

// PotentialEnergy returns the exact softened potential energy
// -Σ_{i<j} m_i m_j / sqrt(r_ij² + ε²), computed by direct summation in
// O(N²). Use only for diagnostics and small N.
func (s *System) PotentialEnergy(eps float64) float64 {
	var w float64
	e2 := eps * eps
	for i := 0; i < s.N; i++ {
		for j := i + 1; j < s.N; j++ {
			r2 := s.Pos[i].Dist2(s.Pos[j]) + e2
			w -= s.Mass[i] * s.Mass[j] / math.Sqrt(r2)
		}
	}
	return w
}

// PotentialEnergyFromPot returns ½ Σ m_i φ_i using the stored per-particle
// potentials (as produced by a GRAPE force evaluation).
func (s *System) PotentialEnergyFromPot() float64 {
	var w float64
	for i := 0; i < s.N; i++ {
		w += 0.5 * s.Mass[i] * s.Pot[i]
	}
	return w
}

// TotalEnergy returns kinetic plus exact potential energy.
func (s *System) TotalEnergy(eps float64) float64 {
	return s.KineticEnergy() + s.PotentialEnergy(eps)
}

// AngularMomentum returns Σ m r×v.
func (s *System) AngularMomentum() vec.V3 {
	var l vec.V3
	for i := 0; i < s.N; i++ {
		l = l.Add(s.Pos[i].Cross(s.Vel[i]).Scale(s.Mass[i]))
	}
	return l
}

// VirialRatio returns |2T/W| for the current state with softening eps.
func (s *System) VirialRatio(eps float64) float64 {
	w := s.PotentialEnergy(eps)
	if w == 0 {
		return math.Inf(1)
	}
	return math.Abs(2 * s.KineticEnergy() / w)
}

// Validate checks structural invariants: array lengths, finite values,
// positive masses and unique ids. It returns a descriptive error for the
// first violation.
func (s *System) Validate() error {
	arrays := []struct {
		name string
		n    int
	}{
		{"Mass", len(s.Mass)}, {"Pos", len(s.Pos)}, {"Vel", len(s.Vel)},
		{"Acc", len(s.Acc)}, {"Jerk", len(s.Jerk)}, {"Snap", len(s.Snap)},
		{"Crack", len(s.Crack)}, {"Pot", len(s.Pot)}, {"Time", len(s.Time)},
		{"Step", len(s.Step)}, {"ID", len(s.ID)},
	}
	for _, a := range arrays {
		if a.n != s.N {
			return fmt.Errorf("nbody: len(%s)=%d, want N=%d", a.name, a.n, s.N)
		}
	}
	for i := 0; i < s.N; i++ {
		if s.Mass[i] < 0 || math.IsNaN(s.Mass[i]) || math.IsInf(s.Mass[i], 0) {
			return fmt.Errorf("nbody: particle %d has invalid mass %v", i, s.Mass[i])
		}
		if !s.Pos[i].IsFinite() {
			return fmt.Errorf("nbody: particle %d has non-finite position %v", i, s.Pos[i])
		}
		if !s.Vel[i].IsFinite() {
			return fmt.Errorf("nbody: particle %d has non-finite velocity %v", i, s.Vel[i])
		}
		if math.IsNaN(s.Time[i]) || math.IsInf(s.Time[i], 0) {
			return fmt.Errorf("nbody: particle %d has non-finite time %v", i, s.Time[i])
		}
	}
	var ids IDIndex
	if !ids.Rebuild(s.ID) {
		return fmt.Errorf("nbody: repeated particle id")
	}
	return nil
}

// MinTime returns the smallest individual particle time, i.e. the time of
// the next block to integrate.
func (s *System) MinTime() float64 {
	if s.N == 0 {
		return 0
	}
	m := math.Inf(1)
	for i := 0; i < s.N; i++ {
		if t := s.Time[i] + s.Step[i]; t < m {
			m = t
		}
	}
	return m
}
