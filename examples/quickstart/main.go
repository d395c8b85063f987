// Quickstart: integrate a small Plummer model on the emulated GRAPE-6 for
// one Heggie time unit — the paper's benchmark workload in miniature — and
// verify energy conservation.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"grape6/internal/board"
	"grape6/internal/core"
	"grape6/internal/gbackend"
	"grape6/internal/model"
	"grape6/internal/units"
	"grape6/internal/xrand"
)

func main() {
	const n = 256
	eps := units.Softening(units.SoftConstant, n) // ε = 1/64, as in Section 4

	hw := board.Default
	hw.Boards = 1
	sys := model.Plummer(n, xrand.New(42))
	sim, err := core.NewSimulator(sys, core.Config{
		Backend: gbackend.New(board.New(hw)), // bit-faithful hardware emulation
		Eps:     eps,
	})
	if err != nil {
		log.Fatal(err)
	}

	e0 := sim.Energy()
	fmt.Printf("N=%d Plummer model, E0=%.6f (Heggie units: want ≈ -0.25)\n", n, e0)

	for _, t := range []float64{0.25, 0.5, 0.75, 1.0} {
		sim.Run(t)
		e := sim.Energy()
		fmt.Printf("t=%.2f  steps=%-8d blocks=%-6d |dE/E|=%.2e\n",
			sim.Time(), sim.Steps(), sim.Blocks(), math.Abs((e-e0)/e0))
	}

	fmt.Printf("\npairwise interactions: %d (%.3g flops at 57/interaction)\n",
		sim.Interactions(), sim.Flops())
	fmt.Printf("emulated hardware busy cycles: %d\n", sim.HardwareCycles())
	fmt.Println("\nThe same run on a machine with a different board count gives")
	fmt.Println("bit-identical trajectories — the GRAPE-6 block-floating-point")
	fmt.Println("property of Section 3.4. Try it: change Boards above.")
}
