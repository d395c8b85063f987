package direct

import (
	"grape6/internal/cpuid"
	"grape6/internal/vec"
)

// quad is the lane block of the AVX2 kernel: four i-particles in, their
// four force sums out, each field one YMM row (offsets in direct_amd64.s).
type quad struct {
	x, y, z, vx, vy, vz [4]float64
	skip                [4]int64
	e2                  [4]float64
	ax, ay, az          [4]float64
	jx, jy, jz          [4]float64
	pot, nnd2           [4]float64
	nn                  [4]int64
}

// quadAVX2 evaluates q's four i-particles against the j-set, one broadcast
// j at a time; len(pos) and len(vel) must be ≥ len(mass).
//
//go:noescape
func quadAVX2(q *quad, mass []float64, pos, vel []vec.V3)

var avx2 = cpuid.AVX2

// evalInto sets out[k] to the force on (xs[k], vs[k]) from js, skipping
// source first+k when selfSet: four i-particles per quadAVX2 call on an
// AVX2 CPU, else evalEach.
func evalInto(out []Force, xs, vs []vec.V3, js JSet, eps float64, selfSet bool, first int) {
	if !avx2 {
		evalEach(out, xs, vs, js, eps, selfSet, first)
		return
	}
	n := len(js.Mass)
	pos, vel := js.Pos[:n], js.Vel[:n]
	var q quad
	e2 := eps * eps
	q.e2 = [4]float64{e2, e2, e2, e2}
	for lo := 0; lo < len(xs); lo += 4 {
		m := min(4, len(xs)-lo)
		for l := range 4 {
			k := lo // an empty lane repeats the quad's first i; its result is dropped
			if l < m {
				k += l
			}
			q.x[l], q.y[l], q.z[l] = xs[k].X, xs[k].Y, xs[k].Z
			q.vx[l], q.vy[l], q.vz[l] = vs[k].X, vs[k].Y, vs[k].Z
			q.skip[l] = -1
			if selfSet {
				q.skip[l] = int64(first + k)
			}
		}
		quadAVX2(&q, js.Mass, pos, vel)
		for l := range m {
			out[lo+l] = Force{
				Acc:  vec.V3{X: q.ax[l], Y: q.ay[l], Z: q.az[l]},
				Jerk: vec.V3{X: q.jx[l], Y: q.jy[l], Z: q.jz[l]},
				Pot:  q.pot[l],
				NN:   int(q.nn[l]),
				NND2: q.nnd2[l],
			}
		}
	}
}
