package main

import (
	"math"

	"grape6/internal/model"
	"grape6/internal/nbody"
	"grape6/internal/vec"
	"grape6/internal/xrand"
)

// Every seed gives a workload the same star cluster seen from another
// direction with its stars renumbered: the model is drawn once (from
// defaultSeed), then rotated and permuted by the run's seed. The rotated
// system has other coordinates in every word, other rounding, another
// j-memory layout and another final hash, but the same distribution of
// block sizes — so a metric read on one seed estimates the same quantity as
// on another. Drawing a new cluster per seed instead makes the work of a
// fixed window a property of the draw (the median block of a 4096-star
// Plummer model moves between 13 and 87 stars across ten draws).

// orient rotates sys by a rotation drawn uniformly from seed and permutes
// its particles; ids stay 0..N-1.
func orient(sys *nbody.System, seed uint64) *nbody.System {
	rng := xrand.New(seed)
	// A normalised 4-vector of normals is a uniform unit quaternion.
	w, x, y, z := rng.Norm(), rng.Norm(), rng.Norm(), rng.Norm()
	n := math.Sqrt(w*w + x*x + y*y + z*z)
	w, x, y, z = w/n, x/n, y/n, z/n
	rows := [3]vec.V3{
		vec.New(1-2*(y*y+z*z), 2*(x*y-z*w), 2*(x*z+y*w)),
		vec.New(2*(x*y+z*w), 1-2*(x*x+z*z), 2*(y*z-x*w)),
		vec.New(2*(x*z-y*w), 2*(y*z+x*w), 1-2*(x*x+y*y)),
	}
	rot := func(v vec.V3) vec.V3 { return vec.New(rows[0].Dot(v), rows[1].Dot(v), rows[2].Dot(v)) }
	out := nbody.New(sys.N)
	for i, p := range rng.Perm(sys.N) {
		out.Mass[i] = sys.Mass[p]
		out.Pos[i] = rot(sys.Pos[p])
		out.Vel[i] = rot(sys.Vel[p])
	}
	return out
}

// residentSystem is the right-hand end of Fig. 13: a Plummer model whose
// blocks are large enough that the force kernel is all that matters.
func residentSystem(e *env) *nbody.System {
	return orient(model.Plummer(e.sz.residentN, xrand.New(defaultSeed)), e.seed)
}

// hardbinarySystem is the paper's small-block regime: a Plummer model plus
// one hard circular binary at the centre, whose two stars step some
// thousand times between the steps of any field star.
func hardbinarySystem(e *env) *nbody.System {
	field := model.Plummer(e.sz.hardN, xrand.New(defaultSeed))
	bin := model.TwoBodyCircular(binaryMass, binaryMass, binarySep)
	sys := nbody.New(field.N + bin.N)
	copy(sys.Mass, field.Mass)
	copy(sys.Pos, field.Pos)
	copy(sys.Vel, field.Vel)
	copy(sys.Mass[field.N:], bin.Mass)
	copy(sys.Pos[field.N:], bin.Pos)
	copy(sys.Vel[field.N:], bin.Vel)
	return orient(sys, e.seed)
}

// tenantSystem is client k's own Plummer model.
func tenantSystem(e *env, k int) *nbody.System {
	return orient(model.Plummer(e.sz.tenantN, xrand.New(defaultSeed+1+uint64(k))), e.seed+1+uint64(k))
}

// cosimSystem is the cluster the simulated machine integrates.
func cosimSystem(e *env) *nbody.System {
	return orient(model.Plummer(e.sz.cosimN, xrand.New(defaultSeed+3)), e.seed)
}
