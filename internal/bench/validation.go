package bench

import (
	"fmt"
	"math"

	"grape6/internal/ahmadcohen"
	"grape6/internal/board"
	"grape6/internal/gbackend"
	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/xrand"
)

// runValidation is the cross-cutting accuracy experiment: it integrates
// the same Plummer model on the float64 reference and on the emulated
// GRAPE-6 hardware, reporting trajectory deviation and energy drift, and
// verifies the machine-size bit-invariance of Section 3.4 end to end.
func runValidation(o *Options) (Figure, error) {
	var e Figure
	n := 64
	until := 0.25
	if o.Quick {
		until = 0.125
	}
	eps := 1.0 / 64

	run := func(b hermite.Backend) (*hermite.Integrator, error) {
		sys := model.Plummer(n, xrand.New(Seed+3))
		it, err := hermite.New(sys, b, hermite.DefaultParams(eps))
		if err != nil {
			return nil, err
		}
		it.Run(until)
		return it, nil
	}
	runHW := func(boards int) (*hermite.Integrator, error) {
		cfg := board.Default
		cfg.ChipsPerModule = 2
		cfg.ModulesPerBoard = 2
		cfg.Boards = boards
		gb := gbackend.New(board.New(cfg))
		defer gb.Close()
		return run(gb)
	}

	ref, err := run(hermite.NewDirectBackend())
	if err != nil {
		return e, err
	}
	hw1, err := runHW(1)
	if err != nil {
		return e, err
	}
	hw4, err := runHW(4)
	if err != nil {
		return e, err
	}

	var maxDev float64
	bitIdentical := true
	for i := 0; i < n; i++ {
		if d := ref.Sys.Pos[i].Dist(hw1.Sys.Pos[i]); d > maxDev {
			maxDev = d
		}
		if hw1.Sys.Pos[i] != hw4.Sys.Pos[i] || hw1.Sys.Vel[i] != hw4.Sys.Vel[i] {
			bitIdentical = false
		}
	}

	e0 := model.Plummer(n, xrand.New(Seed+3)).TotalEnergy(eps)
	drift := func(it *hermite.Integrator) float64 {
		return math.Abs((it.Energy() - e0) / e0)
	}

	s := Series{Label: "validation metrics", Units: "dimensionless"}
	s.Points = append(s.Points,
		Point{N: 1, Value: maxDev},                 // max position deviation HW vs reference
		Point{N: 2, Value: drift(ref)},             // reference energy drift
		Point{N: 3, Value: drift(hw1)},             // hardware energy drift
		Point{N: 4, Value: boolTo01(bitIdentical)}, // 1-board vs 4-board bit identity
	)
	e.Series = append(e.Series, s)
	e.Notes = append(e.Notes, fmt.Sprintf("N=%d, t=%g, eps=1/64", n, until))
	if !bitIdentical {
		e.Notes = append(e.Notes, "WARNING: machine-size bit-invariance violated")
	}
	return e, nil
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// runAblationNeighbourScheme measures the Ahmad-Cohen neighbour scheme's
// pairwise-work saving over the plain Hermite integrator — the software
// optimisation layered on the same hardware, from the paper's reference
// [10] (Makino & Aarseth 1992).
func runAblationNeighbourScheme(o *Options) (Figure, error) {
	var e Figure
	ns := []int{128, 256}
	if !o.Quick {
		ns = []int{128, 256, 512}
	}
	until := 0.125
	eps := 1.0 / 64

	saving := Series{Label: "pairwise-work saving factor", Units: "x"}
	for _, n := range ns {
		acSys := model.Plummer(n, xrand.New(Seed+uint64(n)))
		ac, err := ahmadcohen.New(acSys, hermite.DefaultParams(eps))
		if err != nil {
			return e, err
		}
		ac.Run(until)

		plainSys := model.Plummer(n, xrand.New(Seed+uint64(n)))
		plain, err := hermite.New(plainSys, hermite.NewDirectBackend(), hermite.DefaultParams(eps))
		if err != nil {
			return e, err
		}
		plain.Run(until)

		saving.Points = append(saving.Points, Point{
			N: n, Value: float64(plain.Interactions) / float64(ac.PairOps),
		})
	}
	e.Series = append(e.Series, saving)
	return e, nil
}
