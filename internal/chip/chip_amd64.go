package chip

import "grape6/internal/gfixed"

// quad is the lane block of tileAVX2 (offsets in chip_amd64.s): four
// i-particles, their running sums and nearest neighbours, the batch's
// constants four times over, and the j-planes from the range's first slot.
// Every [4] field is one YMM row.
type quad struct {
	x     [3][4]gfixed.Fixed64
	v     [3][4]float64
	self  [4]int
	scale [3][4]float64 // acceleration, jerk, potential
	sum   [7][4]int64   // Acc[0..2], Jerk[0..2], Pot
	nnd2  [4]float64
	nn    [4]int

	e2, invPos, one, three, sigma, magic          [4]float64
	magicMiss, sumBias, sumMiss, tameLo, tameMiss [4]uint64

	px   [3]*gfixed.Fixed64
	pv   [3]*float64
	mass *float64
	id   *int
}

// tileAVX2 runs slots [k, n) of q's planes for its four i-particles until
// one slot misses, and returns that slot (n when none did).
//
//go:noescape
func tileAVX2(q *quad, k, n int) int

func four(x float64) [4]float64 { return [4]float64{x, x, x, x} }

func fourBits(x uint64) [4]uint64 { return [4]uint64{x, x, x, x} }

// forceQuads evaluates the batch four i-particles at a time against the n
// slots from lo, through tileAVX2, and returns how many it evaluated: a
// multiple of four, and none without AVX2. The caller takes the rest.
//
//grape:noalloc
func (ch *Chip) forceQuads(dst []Partial, is []IParticle, lo, n int, e2 float64, r gfixed.Rounder, invPos float64) int {
	if !avx2 {
		return 0
	}
	end := len(is) &^ 3
	if end == 0 {
		return 0
	}
	var q quad
	l := r.Lanes()
	q.e2, q.invPos, q.one, q.three = four(e2), four(invPos), four(1), four(3)
	q.sigma, q.magic = four(l.Sigma), four(l.Magic)
	q.magicMiss, q.sumBias, q.sumMiss = fourBits(l.MagicMiss), fourBits(l.SumBias), fourBits(l.SumMiss)
	q.tameLo, q.tameMiss = fourBits(l.TameLo), fourBits(l.TameMiss)
	for c := 0; c < 3; c++ {
		q.px[c], q.pv[c] = &ch.px[c][lo], &ch.pv[c][lo]
	}
	q.mass, q.id = &ch.mass[lo], &ch.id[lo]
	tame := gfixed.Untame(e2) == 0
	for i := 0; i < end; i += 4 {
		ch.forceQuad(&q, is[i:i+4], dst[i:i+4], lo, n, tame, e2, r, invPos)
	}
	return end
}

// forceQuad is forceTile for the four i-particles is into ps, on q's
// planes: runs of tileAVX2, each ended by a slot that all four lanes take
// through forcePair. A quad that cannot run (e2 not tame, or a group of
// three on mixed scales in any partial) goes through forceTile in pairs.
//
//grape:noalloc
func (ch *Chip) forceQuad(q *quad, is []IParticle, ps []Partial, lo, n int, tame bool, e2 float64, r gfixed.Rounder, invPos float64) {
	for l := range 4 {
		ip := &is[l]
		for c := 0; c < 3; c++ {
			q.x[c][l], q.v[c][l] = ip.X[c], ip.V[c]
		}
		q.self[l] = ip.SelfID
		var ok bool
		q.scale[0][l], q.scale[1][l], q.scale[2][l], ok = ps[l].groupScales()
		tame = tame && ok
	}
	if !tame {
		ch.forceTile(&is[0], &ps[0], lo, &is[1], &ps[1], lo, n, e2, r, invPos)
		ch.forceTile(&is[2], &ps[2], lo, &is[3], &ps[3], lo, n, e2, r, invPos)
		return
	}
	for k := 0; k < n; k++ {
		for l := range 4 {
			p := &ps[l]
			for c := 0; c < 3; c++ {
				q.sum[c][l], q.sum[3+c][l] = p.Acc[c].Sum, p.Jerk[c].Sum
			}
			q.sum[6][l], q.nnd2[l], q.nn[l] = p.Pot.Sum, p.NND2, p.NN
		}
		k = tileAVX2(q, k, n)
		for l := range 4 {
			p := &ps[l]
			for c := 0; c < 3; c++ {
				p.Acc[c].Sum, p.Jerk[c].Sum = q.sum[c][l], q.sum[3+c][l]
			}
			p.Pot.Sum, p.NND2, p.NN = q.sum[6][l], q.nnd2[l], q.nn[l]
		}
		if k < n {
			for l := range 4 {
				ch.forcePair(&is[l], &ps[l], e2, r, invPos, lo+k)
			}
		}
	}
}
