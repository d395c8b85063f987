package chip

import (
	"math"
	"testing"

	"grape6/internal/gfixed"
	"grape6/internal/xrand"
)

// forceTileRef is the pair loop as the specification reads: every stage
// one call to gfixed's exact Round or Add, every accumulator updated in
// place. It is defined for every float64 and every accumulator state, and
// forceTile — runs of inlined partial primitives stitched together with
// forcePair — must produce the same Partial bit for bit.
func forceTileRef(ch *Chip, ip *IParticle, p *Partial, e2 float64, r gfixed.Rounder, invPos float64, lo, hi int) {
	for k := lo; k < hi; k++ {
		dx := r.Round(float64(ch.px[0][k]-ip.X[0]) * invPos)
		dy := r.Round(float64(ch.px[1][k]-ip.X[1]) * invPos)
		dz := r.Round(float64(ch.px[2][k]-ip.X[2]) * invPos)
		dvx := r.Round(ch.pv[0][k] - ip.V[0])
		dvy := r.Round(ch.pv[1][k] - ip.V[1])
		dvz := r.Round(ch.pv[2][k] - ip.V[2])

		r2 := r.Round(dx*dx + dy*dy + dz*dz + e2)
		if r2 <= 0 {
			continue
		}

		rinv := r.Round(1 / math.Sqrt(r2))
		rinv2 := r.Round(rinv * rinv)
		mrinv := r.Round(ch.mass[k] * rinv)
		mrinv3 := r.Round(mrinv * rinv2)

		rv := r.Round((dx*dvx + dy*dvy + dz*dvz) * rinv2)
		rv3 := r.Round(3 * rv)

		p.Acc[0].Add(r.Round(mrinv3 * dx))
		p.Acc[1].Add(r.Round(mrinv3 * dy))
		p.Acc[2].Add(r.Round(mrinv3 * dz))
		p.Jerk[0].Add(r.Round(mrinv3 * r.Round(dvx-rv3*dx)))
		p.Jerk[1].Add(r.Round(mrinv3 * r.Round(dvy-rv3*dy)))
		p.Jerk[2].Add(r.Round(mrinv3 * r.Round(dvz-rv3*dz)))
		p.Pot.Add(-mrinv)

		if ch.id[k] != ip.SelfID && (r2 < p.NND2 || (r2 == p.NND2 && (p.NN < 0 || ch.id[k] < p.NN))) {
			p.NND2 = r2
			p.NN = ch.id[k]
		}
	}
}

// samePartial compares every field of two partials, floats by bit pattern.
func samePartial(a, b *Partial) bool {
	accs := func(p *Partial) [7]gfixed.Accum {
		return [7]gfixed.Accum{p.Acc[0], p.Acc[1], p.Acc[2], p.Jerk[0], p.Jerk[1], p.Jerk[2], p.Pot}
	}
	return accs(a) == accs(b) && a.NN == b.NN && gfixed.FloatBits(a.NND2) == gfixed.FloatBits(b.NND2)
}

// The scenario bits of FuzzForceTile's flags argument.
const (
	fzZeroVel    = 1 << iota // every velocity zero: a cold start
	fzPlanar                 // z ≡ 0 in position and velocity: a disc
	fzCoincident             // j-particles exactly on the i-particle
	fzMass                   // special value as one j-particle's mass
	fzJVel                   // special value in one j-particle's velocity
	fzIVel                   // special value in the i-particle's velocity
	fzMixedExp               // one acceleration or jerk component on the potential's exponent
	fzPreload                // one accumulator entered with sum as its Sum
	fzWideMant               // 53-bit mantissa: the identity rounder
)

// FuzzForceTile compares forceTile with forceTileRef over the inputs where
// the two are built differently: zero differences (which must not leave
// the fast runs), coincident particles with and without softening,
// subnormal / ±Inf / NaN values in mass, velocity and softening, block
// exponents that overflow each accumulator group on its own, groups with
// mixed exponents, and a partial entered near or past saturation. The
// j-range is also cut into two tiles at a fuzzed point, which must change
// nothing.
func FuzzForceTile(f *testing.F) {
	nan1 := uint64(0xffffffffffffffff) // all-ones payload: RoundTame would carry it into -0
	specials := []uint64{
		0, 1 << 63, 1, 0x000fffffffffffff, 0x0010000000000000, // ±0, subnormals, smallest normal
		gfixed.FloatBits(math.Ldexp(1, -gfixed.TameExp)), gfixed.FloatBits(math.Ldexp(1, -gfixed.TameExp-1)),
		gfixed.FloatBits(math.Ldexp(1, gfixed.TameExp)), gfixed.FloatBits(math.MaxFloat64),
		gfixed.FloatBits(math.Inf(1)), gfixed.FloatBits(math.Inf(-1)),
		gfixed.FloatBits(math.NaN()), nan1, 0x7ff0000000000001,
	}
	eps64 := gfixed.FloatBits(1.0 / 64)
	for seed := uint64(0); seed < 8; seed++ {
		// Ordinary clusters, cold, planar, coincident with ε = 0 and ε > 0.
		f.Add(seed, uint16(0), eps64, uint64(0), 4, 6, 6, int64(0), uint8(3))
		f.Add(seed, uint16(fzZeroVel), eps64, uint64(0), 4, 6, 6, int64(0), uint8(0))
		f.Add(seed, uint16(fzPlanar), eps64, uint64(0), 4, 6, 6, int64(0), uint8(200))
		f.Add(seed, uint16(fzZeroVel|fzPlanar|fzCoincident), uint64(0), uint64(0), 4, 6, 6, int64(0), uint8(5))
		f.Add(seed, uint16(fzCoincident), eps64, uint64(0), 4, 6, 6, int64(0), uint8(5))
		f.Add(seed, uint16(fzWideMant), eps64, uint64(0), 4, 6, 6, int64(0), uint8(9))
		// Exponents small enough to overflow one group at a time, all at
		// once, and far enough out that the scale itself is 0 or +Inf.
		f.Add(seed, uint16(0), eps64, uint64(0), -40, 6, 6, int64(0), uint8(7))
		f.Add(seed, uint16(0), eps64, uint64(0), 4, -40, 6, int64(0), uint8(7))
		f.Add(seed, uint16(0), eps64, uint64(0), 4, 6, -40, int64(0), uint8(7))
		f.Add(seed, uint16(fzMixedExp), eps64, uint64(0), -30, 6, -12, int64(0), uint8(7))
		f.Add(seed, uint16(fzMixedExp), eps64, uint64(0), 4, 6, 8, int64(0), uint8(7)) // mixed, nothing overflows
		f.Add(seed, uint16(fzZeroVel), eps64, uint64(0), -1500, 1500, -1500, int64(0), uint8(7))
		// A partial as Merge can leave one: at, next to and past ±2^61 / ±2^62.
		for _, sum := range []int64{1<<61 - 1, 1 << 61, -(1 << 61) - 1, 1<<62 - 1, -(1<<62 - 1), 1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64} {
			f.Add(seed, uint16(fzPreload), eps64, uint64(0), 4, 6, 6, sum, uint8(seed*37))
		}
		for _, sp := range specials {
			for _, where := range []uint16{fzMass, fzJVel, fzIVel, fzMass | fzJVel | fzCoincident} {
				f.Add(seed, where, eps64, sp, 4, 6, 6, int64(0), uint8(11))
			}
			f.Add(seed, uint16(fzCoincident), sp, uint64(0), 4, 6, 6, int64(0), uint8(11)) // as softening
		}
	}

	f.Fuzz(func(t *testing.T, seed uint64, flags uint16, epsBits, special uint64, expAcc, expJerk, expPot int, sum int64, cut uint8) {
		cfg := Default
		if flags&fzWideMant != 0 {
			cfg.Format.MantBits = 53
		}
		fm := cfg.Format
		rng := xrand.New(seed)
		unit := func() float64 { return 2*rng.Float64() - 1 }
		nj := 2 + int(seed%23)
		sp := gfixed.FloatFromBits(special)

		ch := New(cfg)
		js := make([]JParticle, nj)
		for k := range js {
			js[k].ID = k
			js[k].Mass = (0.5 + rng.Float64()) / float64(nj)
			for c := 0; c < 3; c++ {
				x, err := fm.ToFixed(4 * unit())
				if err != nil {
					t.Fatal(err)
				}
				js[k].X[c] = x
				js[k].V[c] = unit()
			}
		}
		if err := ch.LoadJ(js); err != nil {
			t.Fatal(err)
		}
		ch.Predict(0) // T0 = 0: the planes now hold the stored state, rounded

		// The scenarios edit the predicted planes directly, so values the
		// predictor would have rounded (or refused) still reach the kernel.
		ip := IParticle{SelfID: 0}
		for c := 0; c < 3; c++ {
			ip.X[c], ip.V[c] = ch.px[c][0], ch.pv[c][0]
		}
		if flags&fzCoincident != 0 {
			for c := 0; c < 3; c++ {
				ch.px[c][1] = ip.X[c]
				ch.px[c][nj-1] = ip.X[c]
			}
		}
		if flags&fzZeroVel != 0 {
			for c := 0; c < 3; c++ {
				ip.V[c] = 0
				for k := range js {
					ch.pv[c][k] = 0
				}
			}
		}
		if flags&fzPlanar != 0 {
			ip.X[2], ip.V[2] = 0, 0
			for k := range js {
				ch.px[2][k], ch.pv[2][k] = 0, 0
			}
		}
		if flags&fzMass != 0 {
			ch.mass[rng.Intn(nj)] = sp
		}
		if flags&fzJVel != 0 {
			ch.pv[rng.Intn(3)][rng.Intn(nj)] = sp
		}
		if flags&fzIVel != 0 {
			ip.V[rng.Intn(3)] = sp
		}

		var start Partial
		start.Init(fm, expAcc%2000, expJerk%2000, expPot%2000)
		all := [7]*gfixed.Accum{&start.Acc[0], &start.Acc[1], &start.Acc[2], &start.Jerk[0], &start.Jerk[1], &start.Jerk[2], &start.Pot}
		if flags&fzMixedExp != 0 {
			all[rng.Intn(6)].Init(fm, expPot%2000)
		}
		if flags&fzPreload != 0 {
			all[seed%7].Sum = sum
		}

		eps := gfixed.FloatFromBits(epsBits)
		e2 := fm.Round(eps * eps)
		r, invPos := fm.Rounder(), fm.PosResolution()

		want := start
		forceTileRef(ch, &ip, &want, e2, r, invPos, 0, nj)

		got := start
		ch.forceTile(&ip, &got, e2, r, invPos, 0, nj)
		if !samePartial(&got, &want) {
			t.Fatalf("one tile:\n got %+v\nwant %+v", got, want)
		}

		mid := int(cut) % (nj + 1)
		got = start
		ch.forceTile(&ip, &got, e2, r, invPos, 0, mid)
		ch.forceTile(&ip, &got, e2, r, invPos, mid, nj)
		if !samePartial(&got, &want) {
			t.Fatalf("tiles cut at %d:\n got %+v\nwant %+v", mid, got, want)
		}
	})
}

// FuzzPredictParticle compares the predictor on inlined RoundTame behind
// its per-particle guard with predictExact, with one fuzzed value planted
// in the time or in any stored coefficient.
func FuzzPredictParticle(f *testing.F) {
	for _, sp := range []float64{
		0, math.Copysign(0, -1), 1, -0.375, math.SmallestNonzeroFloat64, math.Ldexp(1.5, -1030),
		math.Ldexp(1, -1022), math.Ldexp(1, -gfixed.TameExp), math.Ldexp(1, -gfixed.TameExp-1),
		math.Ldexp(1, gfixed.TameExp), math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		gfixed.FloatFromBits(0xffffffffffffffff),
	} {
		for where := uint8(0); where < 14; where++ {
			f.Add(uint64(where), gfixed.FloatBits(sp), where, uint8(32))
		}
	}
	f.Fuzz(func(t *testing.T, seed, special uint64, where, mant uint8) {
		fm := gfixed.Grape6
		fm.MantBits = 2 + uint(mant)%52
		rng := xrand.New(seed)
		unit := func() float64 { return 2*rng.Float64() - 1 }
		var j JParticle
		j.T0 = rng.Float64()
		tNow := j.T0 + rng.Float64()/8
		for c := 0; c < 3; c++ {
			x, err := fm.ToFixed(4 * unit())
			if err != nil {
				t.Fatal(err)
			}
			j.X[c], j.V[c], j.A[c], j.J[c], j.S[c] = x, unit(), unit(), 8*unit(), 64*unit()
		}
		// where: 0-11 a coefficient, 12 the particle's own time, 13 the
		// prediction time, anything else the particle's own time again at
		// t = T0, the dt = 0 branch.
		sp := gfixed.FloatFromBits(special)
		switch w := int(where); {
		case w < 12:
			*[12]*float64{&j.V[0], &j.V[1], &j.V[2], &j.A[0], &j.A[1], &j.A[2], &j.J[0], &j.J[1], &j.J[2], &j.S[0], &j.S[1], &j.S[2]}[w] = sp
		case w == 12:
			j.T0 = sp
		case w == 13:
			tNow = sp
		default:
			j.T0, tNow = sp, sp
		}
		r := fm.Rounder()
		gx, gv := predictParticle(fm, r, &j, tNow)
		wx, wv := predictExact(fm, r, &j, tNow)
		for c := 0; c < 3; c++ {
			if gx[c] != wx[c] || gfixed.FloatBits(gv[c]) != gfixed.FloatBits(wv[c]) {
				t.Fatalf("mant=%d where=%d special=%#x component %d: predictParticle (%d, %#x) != predictExact (%d, %#x)",
					fm.MantBits, where, special, c, gx[c], gfixed.FloatBits(gv[c]), wx[c], gfixed.FloatBits(wv[c]))
			}
		}
	})
}
