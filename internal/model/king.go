package model

import (
	"fmt"
	"math"

	"grape6/internal/nbody"
	"grape6/internal/units"
	"grape6/internal/xrand"
)

// King models are the standard initial conditions for globular-cluster
// simulations — the collisional systems GRAPE was built for. A King (1966)
// model is a lowered isothermal sphere parameterised by the central
// dimensionless potential W0: small W0 gives nearly homogeneous clusters,
// large W0 strongly concentrated ones (observed clusters span W0 ≈ 3-12).
//
// The implementation solves the dimensionless Poisson equation for w(x) =
// ψ/σ², builds density and enclosed-mass tables, samples positions from
// the cumulative mass and velocities from the King distribution function
// f(E) ∝ e^{(ψ-v²/2)/σ²} - 1, and rescales the realization to Heggie
// units (M = 1, E = -1/4).
type KingModel struct {
	W0 float64

	// Radial tables in model units (King radius r0 = 1, σ = 1, G = 1).
	x    []float64 // radius grid
	w    []float64 // dimensionless potential
	menc []float64 // enclosed mass
	rt   float64   // tidal radius
}

// kingRho is the dimensionless King density ρ̂(w) for w > 0:
// e^w erf(√w) - √(4w/π) (1 + 2w/3).
func kingRho(w float64) float64 {
	if w <= 0 {
		return 0
	}
	sq := math.Sqrt(w)
	return math.Exp(w)*math.Erf(sq) - math.Sqrt(4*w/math.Pi)*(1+2*w/3)
}

// NewKing solves the King structure equations for the given W0.
func NewKing(w0 float64) (*KingModel, error) {
	if w0 < 0.3 || w0 > 14 {
		return nil, fmt.Errorf("model: King W0=%v outside supported range [0.3, 14]", w0)
	}
	k := &KingModel{W0: w0}

	rho0 := kingRho(w0)
	// Poisson: w'' + (2/x) w' = -9 ρ̂(w)/ρ̂(W0); RK4 on (w, u=w').
	deriv := func(x, w, u float64) (dw, du float64) {
		dw = u
		du = -9 * kingRho(w) / rho0
		if x > 0 {
			du -= 2 / x * u
		}
		return
	}

	const dx = 1e-3
	x, w, u := 1e-6, w0, 0.0
	var mass float64
	k.append(x, w, mass)
	for w > 0 && x < 1e4 {
		// Classic RK4 step.
		k1w, k1u := deriv(x, w, u)
		k2w, k2u := deriv(x+dx/2, w+dx/2*k1w, u+dx/2*k1u)
		k3w, k3u := deriv(x+dx/2, w+dx/2*k2w, u+dx/2*k2u)
		k4w, k4u := deriv(x+dx, w+dx*k3w, u+dx*k3u)
		wNew := w + dx/6*(k1w+2*k2w+2*k3w+k4w)
		uNew := u + dx/6*(k1u+2*k2u+2*k3u+k4u)
		xNew := x + dx

		// Accumulate the mass integral 4π x² ρ dx (model units where the
		// Poisson constant 9 absorbs 4πG/σ²; only relative masses matter
		// for sampling, so the prefactor is irrelevant).
		mass += x * x * kingRho(w) * dx

		if wNew <= 0 {
			// Interpolate the tidal radius.
			frac := w / (w - wNew)
			k.rt = x + frac*dx
			k.append(k.rt, 0, mass)
			break
		}
		x, w, u = xNew, wNew, uNew
		k.append(x, w, mass)
	}
	if k.rt == 0 {
		return nil, fmt.Errorf("model: King W0=%v did not truncate within x=1e4", w0)
	}
	return k, nil
}

func (k *KingModel) append(x, w, m float64) {
	k.x = append(k.x, x)
	k.w = append(k.w, w)
	k.menc = append(k.menc, m)
}

// Concentration returns c = log10(rt/r0).
func (k *KingModel) Concentration() float64 { return math.Log10(k.rt) }

// lookup returns the table index bracketing radius x.
func (k *KingModel) lookup(x float64) int {
	lo, hi := 0, len(k.x)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if k.x[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 {
		lo--
	}
	return lo
}

// potentialAt interpolates w at radius x.
func (k *KingModel) potentialAt(x float64) float64 {
	if x >= k.rt {
		return 0
	}
	i := k.lookup(x)
	if i >= len(k.x)-1 {
		return k.w[len(k.w)-1]
	}
	f := (x - k.x[i]) / (k.x[i+1] - k.x[i])
	return k.w[i] + f*(k.w[i+1]-k.w[i])
}

// radiusForMass inverts the cumulative mass profile.
func (k *KingModel) radiusForMass(frac float64) float64 {
	target := frac * k.menc[len(k.menc)-1]
	lo, hi := 0, len(k.menc)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if k.menc[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return k.x[0]
	}
	f := (target - k.menc[lo-1]) / math.Max(k.menc[lo]-k.menc[lo-1], 1e-300)
	return k.x[lo-1] + f*(k.x[lo]-k.x[lo-1])
}

// sampleSpeed draws a speed from f(v) ∝ v² (e^{w - v²/2} - 1), v < √(2w).
func (k *KingModel) sampleSpeed(w float64, rng *xrand.Source) float64 {
	vmax := math.Sqrt(2 * w)
	// Envelope: scan for the density maximum.
	g := func(v float64) float64 {
		return v * v * (math.Exp(w-v*v/2) - 1)
	}
	var gmax float64
	for i := 1; i < 64; i++ {
		if v := g(vmax * float64(i) / 64); v > gmax {
			gmax = v
		}
	}
	gmax *= 1.05
	for {
		v := rng.Float64() * vmax
		if rng.Float64()*gmax < g(v) {
			return v
		}
	}
}

// Sample draws an n-body realization in Heggie units (M = 1, E = -1/4),
// centred with zero net momentum.
func (k *KingModel) Sample(n int, rng *xrand.Source) *nbody.System {
	sys := nbody.New(n)
	for i := 0; i < n; i++ {
		sys.Mass[i] = 1.0 / float64(n)
		r := k.radiusForMass(rng.Float64())
		w := k.potentialAt(r)
		x, y, z := rng.OnSphere()
		sys.Pos[i].X, sys.Pos[i].Y, sys.Pos[i].Z = x*r, y*r, z*r
		v := k.sampleSpeed(w, rng)
		vx, vy, vz := rng.OnSphere()
		sys.Vel[i].X, sys.Vel[i].Y, sys.Vel[i].Z = vx*v, vy*v, vz*v
	}
	sys.CenterOnOrigin()

	// Rescale to Heggie units AND exact virial equilibrium: velocities by
	// α so that T' = 1/4 and positions by β so that W' = -1/2 (hence
	// E = -1/4, |2T/W| = 1). The uniform velocity scaling also absorbs
	// the King model's mass normalization (the dimensionless Poisson
	// solution fixes GM/(σ²r₀), not M = 1), exactly as standard
	// initial-condition generators do.
	ke := sys.KineticEnergy()
	pe := sys.PotentialEnergy(0)
	if pe >= 0 || ke <= 0 {
		return sys // degenerate tiny sample; leave unscaled
	}
	alpha := math.Sqrt(0.25 / ke)
	beta := pe / -0.5
	for i := 0; i < n; i++ {
		sys.Pos[i] = sys.Pos[i].Scale(beta)
		sys.Vel[i] = sys.Vel[i].Scale(alpha)
	}
	return sys
}

// King samples an n-particle King model with central potential w0 in
// Heggie units — the convenience wrapper mirroring Plummer.
func King(n int, w0 float64, rng *xrand.Source) (*nbody.System, error) {
	k, err := NewKing(w0)
	if err != nil {
		return nil, err
	}
	sys := k.Sample(n, rng)
	_ = units.TotalMass // Heggie-units contract documented in package units
	return sys, nil
}
