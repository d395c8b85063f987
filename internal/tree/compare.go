package tree

import (
	"math"

	"grape6/internal/nbody"
	"grape6/internal/vec"
)

// ForceError measures the RMS relative force error of the tree against
// direct summation over a sample of nSample particles — the accuracy axis
// of the paper's treecode comparison.
func ForceError(sys *nbody.System, cfg Config, nSample int) (rms float64, err error) {
	t, err := Build(sys.Pos, sys.Mass, cfg)
	if err != nil {
		return 0, err
	}
	if nSample > sys.N {
		nSample = sys.N
	}
	stride := sys.N / nSample
	if stride < 1 {
		stride = 1
	}
	var sum float64
	var count int
	e2 := cfg.Eps * cfg.Eps
	for i := 0; i < sys.N; i += stride {
		ft := t.Accel(sys.Pos[i])
		// Direct reference.
		var exact vec.V3
		for j := 0; j < sys.N; j++ {
			if j == i {
				continue
			}
			d := sys.Pos[j].Sub(sys.Pos[i])
			r2 := d.Norm2() + e2
			rinv := 1 / math.Sqrt(r2)
			exact = exact.AddScaled(sys.Mass[j]*rinv*rinv*rinv, d)
		}
		if n := exact.Norm(); n > 0 {
			rel := ft.Acc.Sub(exact).Norm() / n
			sum += rel * rel
			count++
		}
	}
	if count == 0 {
		return 0, nil
	}
	return math.Sqrt(sum / float64(count)), nil
}

// StepRatio estimates the cost ratio between shared and individual
// timesteps for a system: the ratio of the harmonic-mean individual
// timestep to the smallest individual timestep, which is the factor by
// which a shared-timestep code must over-step the easy particles. The
// paper states this exceeds 100 for its production runs.
func StepRatio(steps []float64) float64 {
	if len(steps) == 0 {
		return 1
	}
	minStep := steps[0]
	var invSum float64
	for _, s := range steps {
		if s <= 0 {
			continue
		}
		if s < minStep {
			minStep = s
		}
		invSum += 1 / s
	}
	if invSum == 0 || minStep <= 0 {
		return 1
	}
	harmonic := float64(len(steps)) / invSum
	return harmonic / minStep
}
