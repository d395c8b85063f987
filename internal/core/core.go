// Package core is the library facade: a Simulator that integrates an
// N-body system with the Hermite individual-block-timestep scheme on the
// force backend it is given, with checkpointing and conservation
// diagnostics. The backend is the float64 reference (a nil
// Config.Backend), an emulated GRAPE-6 array of the caller's own
// (gbackend.New(board.New(hw))), or a lease on a shared one
// (gbackend.NewBorrowed) — the grape6d daemon hosts each session as a
// Simulator on its lease. The examples under examples/ and the cmd/
// binaries are thin clients of this package.
package core

import (
	"io"

	"grape6/internal/gbackend"
	"grape6/internal/hermite"
	"grape6/internal/nbody"
	"grape6/internal/snapshot"
	"grape6/internal/units"
)

// Config parameterises a Simulator.
type Config struct {
	// Backend is the force engine; nil is the float64 reference
	// ("software GRAPE"). The Simulator owns it from NewSimulator on:
	// Close shuts down the worker pool of a dedicated gbackend.New array
	// and leaves a gbackend.NewBorrowed lease to its scheduler.
	Backend hermite.Backend

	// Eta and EtaS are the Aarseth timestep parameters; zero values take
	// the defaults (0.02 / 0.01).
	Eta  float64
	EtaS float64

	// Eps is the Plummer softening length.
	Eps float64
}

// Simulator integrates one system.
type Simulator struct {
	eps float64
	it  *hermite.Integrator
}

// NewSimulator prepares an integration of sys (which the simulator owns
// from this point on, with cfg.Backend).
func NewSimulator(sys *nbody.System, cfg Config) (*Simulator, error) {
	p := hermite.DefaultParams(cfg.Eps)
	if cfg.Eta > 0 {
		p.Eta = cfg.Eta
	}
	if cfg.EtaS > 0 {
		p.EtaS = cfg.EtaS
	}
	b := cfg.Backend
	if b == nil {
		b = hermite.NewDirectBackend()
	}
	it, err := hermite.New(sys, b, p)
	if err != nil {
		closeBackend(b) // the refused system leaves no worker pool behind
		return nil, err
	}
	return &Simulator{eps: cfg.Eps, it: it}, nil
}

// Close releases the backend the simulator owns: the worker pool of a
// dedicated emulated array. It is a no-op for the float64 reference, for
// a borrowed lease and on repeat calls.
func (s *Simulator) Close() { closeBackend(s.it.B) }

func closeBackend(b hermite.Backend) {
	if c, ok := b.(interface{ Close() }); ok {
		c.Close()
	}
}

// System returns the simulated system (live view).
func (s *Simulator) System() *nbody.System { return s.it.Sys }

// Time returns the current system time.
func (s *Simulator) Time() float64 { return s.it.T }

// Eps returns the softening length in effect — for a restored run, the
// value recovered from the checkpoint header. Diagnostics (energy,
// virial) must use this, not the Config literal a caller happened to
// pass.
func (s *Simulator) Eps() float64 { return s.eps }

// Steps returns the number of individual particle steps taken.
func (s *Simulator) Steps() int64 { return s.it.Steps }

// Blocks returns the number of block steps taken.
func (s *Simulator) Blocks() int64 { return s.it.Blocks }

// Interactions returns the number of pairwise interactions evaluated.
func (s *Simulator) Interactions() int64 { return s.it.Interactions }

// Flops returns the total operation count under the paper's 57-flops
// convention.
func (s *Simulator) Flops() float64 {
	return float64(s.it.Interactions) * units.FlopsPerInteraction
}

// HardwareCycles returns the emulated hardware's busy cycles (zero for
// the float64 reference).
func (s *Simulator) HardwareCycles() int64 {
	if gb, ok := s.it.B.(*gbackend.Backend); ok {
		return gb.HWCycles
	}
	return 0
}

// Step advances one block step.
func (s *Simulator) Step() hermite.BlockStat { return s.it.Step() }

// Run advances until the next block would exceed t.
func (s *Simulator) Run(t float64) { s.it.Run(t) }

// Energy returns the total energy at the current time (exact potential).
func (s *Simulator) Energy() float64 { return s.it.Energy() }

// Synchronized returns a copy of the system with every particle predicted
// to the current system time.
func (s *Simulator) Synchronized() *nbody.System { return s.it.Synchronize(s.it.T) }

// Checkpoint writes a restartable snapshot. The state is synchronized to
// the current system time first (all particles predicted to a common
// time), so that a restart can re-derive forces and timesteps cleanly.
func (s *Simulator) Checkpoint(w io.Writer) error {
	snap := s.it.Synchronize(s.it.T)
	h := snapshot.Header{
		N:    int64(snap.N),
		Time: s.it.T,
		Eps:  s.eps,
		Step: s.it.Steps,
	}
	return snapshot.Write(w, h, snap)
}

// Restore reads a checkpoint and constructs a simulator continuing from
// it (Resume).
func Restore(r io.Reader, cfg Config) (*Simulator, error) {
	h, sys, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	return Resume(h, sys, cfg)
}

// Resume constructs a simulator continuing sys from the state h
// describes: a zero cfg.Eps takes the header's softening, and the step
// count carries on from h.Step. The restart re-initialises forces and
// timesteps at the particles' common time (the integration restarts
// cold, as a real restart does). A fresh integration is the zero-step
// case: Resume(snapshot.Header{Eps: eps}, sys, cfg).
func Resume(h snapshot.Header, sys *nbody.System, cfg Config) (*Simulator, error) {
	if cfg.Eps == 0 {
		cfg.Eps = h.Eps
	}
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		return nil, err
	}
	sim.it.Steps = h.Step
	return sim, nil
}
