// Package core is the library facade: a Simulator that integrates an
// N-body system with the Hermite individual-block-timestep scheme on
// either the float64 reference backend or the emulated GRAPE-6 hardware,
// with checkpointing and conservation diagnostics. The examples under
// examples/ and the cmd/ binaries are thin clients of this package.
package core

import (
	"fmt"
	"io"

	"grape6/internal/board"
	"grape6/internal/diag"
	"grape6/internal/gbackend"
	"grape6/internal/hermite"
	"grape6/internal/nbody"
	"grape6/internal/snapshot"
	"grape6/internal/units"
)

// BackendKind selects the force engine.
type BackendKind int

const (
	// Direct is the float64 reference ("software GRAPE").
	Direct BackendKind = iota
	// Grape is the emulated GRAPE-6 hardware: fixed-point positions,
	// short-mantissa pipelines, block-floating-point summation.
	Grape
)

// String implements fmt.Stringer.
func (k BackendKind) String() string {
	switch k {
	case Direct:
		return "direct"
	case Grape:
		return "grape"
	default:
		return fmt.Sprintf("BackendKind(%d)", int(k))
	}
}

// Config parameterises a Simulator.
type Config struct {
	Backend BackendKind

	// Eta and EtaS are the Aarseth timestep parameters; zero values take
	// the defaults (0.02 / 0.01).
	Eta  float64
	EtaS float64

	// Eps is the Plummer softening length.
	Eps float64

	// HW is the emulated hardware attachment (Grape backend only); nil
	// uses board.Default, the production 4-board single-host attachment.
	HW *board.Config
}

// Simulator integrates one system.
type Simulator struct {
	cfg Config
	sys *nbody.System
	it  *hermite.Integrator
	gb  *gbackend.Backend // nil for Direct
}

// NewSimulator prepares an integration of sys (which the simulator owns
// from this point on).
func NewSimulator(sys *nbody.System, cfg Config) (*Simulator, error) {
	p := hermite.DefaultParams(cfg.Eps)
	if cfg.Eta > 0 {
		p.Eta = cfg.Eta
	}
	if cfg.EtaS > 0 {
		p.EtaS = cfg.EtaS
	}

	var b hermite.Backend
	var gb *gbackend.Backend
	switch cfg.Backend {
	case Direct:
		b = hermite.NewDirectBackend()
	case Grape:
		hw := board.Default
		if cfg.HW != nil {
			hw = *cfg.HW
		}
		gb = gbackend.New(board.New(hw))
		b = gb
	default:
		return nil, fmt.Errorf("core: unknown backend %v", cfg.Backend)
	}

	it, err := hermite.New(sys, b, p)
	if err != nil {
		if gb != nil {
			gb.Close() // the refused system leaves no worker pool behind
		}
		return nil, err
	}
	return &Simulator{cfg: cfg, sys: sys, it: it, gb: gb}, nil
}

// Close releases the emulated hardware the simulator owns: the worker
// pool of a Grape backend's array. It is a no-op for Direct and on repeat
// calls.
func (s *Simulator) Close() {
	if s.gb != nil {
		s.gb.Close()
	}
}

// System returns the simulated system (live view).
func (s *Simulator) System() *nbody.System { return s.sys }

// Time returns the current system time.
func (s *Simulator) Time() float64 { return s.it.T }

// Eps returns the softening length in effect — for a restored run, the
// value recovered from the checkpoint header. Diagnostics (energy,
// virial) must use this, not the Config literal a caller happened to
// pass.
func (s *Simulator) Eps() float64 { return s.cfg.Eps }

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

// HardwareCycles returns the emulated hardware's busy cycles (zero for the
// Direct backend).
func (s *Simulator) HardwareCycles() int64 {
	if s.gb == nil {
		return 0
	}
	return s.gb.HWCycles
}

// HardwareStats summarises the emulated hardware's protocol events.
type HardwareStats struct {
	Cycles      int64 // pipeline busy cycles
	Retries     int64 // block-exponent overflow retries (Section 3.4)
	RangeClamps int64 // escaper coordinates clamped to the fixed-point range
}

// HardwareStats returns the protocol counters (zeros for Direct).
func (s *Simulator) HardwareStats() HardwareStats {
	if s.gb == nil {
		return HardwareStats{}
	}
	return HardwareStats{
		Cycles:      s.gb.HWCycles,
		Retries:     s.gb.Retries,
		RangeClamps: s.gb.RangeClamps,
	}
}

// OnBlock registers a callback invoked after every block step.
func (s *Simulator) OnBlock(fn func(hermite.BlockStat)) { s.it.Trace = fn }

// Step advances one block step.
func (s *Simulator) Step() hermite.BlockStat { return s.it.Step() }

// Run advances until the next block would exceed t.
func (s *Simulator) Run(t float64) { s.it.Run(t) }

// Energy returns the total energy at the current time (exact potential).
func (s *Simulator) Energy() float64 { return s.it.Energy() }

// Energies returns the synchronized energy decomposition.
func (s *Simulator) Energies() diag.Energies {
	snap := s.it.Synchronize(s.it.T)
	return diag.Measure(snap, s.cfg.Eps)
}

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
		Eps:  s.cfg.Eps,
		Step: s.it.Steps,
	}
	return snapshot.Write(w, h, snap)
}

// Restore reads a checkpoint and constructs a simulator continuing from
// it. The restart re-initialises forces and timesteps at the checkpoint
// time (the integration restarts cold, as a real restart does).
func Restore(r io.Reader, cfg Config) (*Simulator, error) {
	h, sys, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
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
