// Kuiper-belt example: a scaled-down version of the paper's first
// production application (Section 5) — planetesimals in a disk around a
// central star, the Makino et al. (2003) early-Kuiper-belt setup. The full
// run used 1.8M particles for 16.30 hours at 33.4 Tflops on the real
// machine; here we integrate a laptop-sized disk functionally and then use
// the machine model to reproduce the paper-scale accounting.
//
//	go run ./examples/kuiperbelt
package main

import (
	"fmt"
	"log"
	"math"

	"grape6/internal/core"
	"grape6/internal/model"
	"grape6/internal/perfmodel"
	"grape6/internal/simnet"
	"grape6/internal/timing"
	"grape6/internal/xrand"
)

func main() {
	const n = 1000
	cfg := model.DefaultKuiperDisk(n)
	sys := model.Disk(cfg, xrand.New(7))

	// Planetesimal dynamics needs a softening far below the interparticle
	// spacing; the central star dominates every orbit.
	sim, err := core.NewSimulator(sys, core.Config{ // no Backend: the float64 reference
		Eps: 1e-4,
		Eta: 0.05, // near-Keplerian orbits tolerate a larger eta
	})
	if err != nil {
		log.Fatal(err)
	}

	// Integrate for two inner-edge orbital periods.
	period := model.OrbitalPeriod(cfg.MCentral, cfg.RInner)
	e0 := sim.Energy()
	fmt.Printf("disk: %d planetesimals in [%.2g, %.2g], inner period %.3g\n",
		n, cfg.RInner, cfg.ROuter, period)

	for _, frac := range []float64{0.5, 1.0, 1.5, 2.0} {
		sim.Run(frac * period)
		snap := sim.Synchronized()
		// Eccentricity proxy: RMS radial velocity over Kepler speed.
		var sum float64
		for i := 1; i < snap.N; i++ {
			r := snap.Pos[i].Norm()
			vr := snap.Pos[i].Unit().Dot(snap.Vel[i])
			vk := math.Sqrt(cfg.MCentral / r)
			sum += (vr / vk) * (vr / vk)
		}
		fmt.Printf("t=%.3g orbits=%.1f  steps=%-9d rms(vr/vk)=%.4f |dE/E|=%.2e\n",
			sim.Time(), frac, sim.Steps(),
			math.Sqrt(sum/float64(snap.N-1)),
			math.Abs((sim.Energy()-e0)/e0))
	}

	// Paper-scale accounting on the modelled machine.
	fmt.Println("\npaper-scale accounting (model):")
	m := perfmodel.MultiCluster(4, simnet.Intel82540EM, perfmodel.P4)
	rep := timing.EstimateApplication(m, timing.KuiperBelt)
	fmt.Printf("  1.8M particles, 1.911e10 steps → %.1f hours at %.1f Tflops\n",
		rep.Hours(), rep.Tflops)
	fmt.Printf("  paper reports: 16.30 hours at 33.4 Tflops\n")
}
