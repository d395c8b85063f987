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
	fzCoincident             // j-particles exactly on lane A's i-particle
	fzMass                   // special value as one j-particle's mass
	fzJVel                   // special value in one j-particle's velocity
	fzIVel                   // special value in lane A's velocity
	fzMixedExp               // one acceleration or jerk component on the potential's exponent
	fzPreload                // one accumulator entered with sum as its Sum
	fzWideMant               // 53-bit mantissa: the identity rounder
	fzBSharesVel             // lane B's i-particle moves with lane A's
	fzBOnSlot                // lane B's i-particle is j-particle slotB (else a free point)
)

// FuzzForceTile compares forceTile with forceTileRef over the inputs where
// the two are built differently: zero differences (which must not leave
// the fast runs), coincident particles with and without softening,
// subnormal / ±Inf / NaN values in mass, velocity and softening, block
// exponents that overflow each accumulator group on its own, groups with
// mixed exponents, and a partial entered near or past saturation.
//
// Lane A is the i-particle those scenarios are built around. Lane B is a
// second i-particle on its own three exponents, on a j-slot or off every
// one, with lane A's velocity or its own, so that a slot can end a run for
// one lane alone; the preloaded or mixed partial is tried in either lane.
// Every comparison is with forceTileRef walking the same slots in the same
// order, lane by lane: both lanes on one tile, the lanes swapped, and the
// lanes on different slots (A from the front while B runs from a fuzzed
// offset, then each over what it has not seen).
//
// The lone-particle path of ForceBatchRangeInto — one i-particle as both
// lanes over the two halves of the range, on either side of a fuzzed cut of
// the memory, the empty sides included — must equal forceTileRef over the
// same halves merged, Overflow flags included, and the whole-range
// reference whenever neither run overflowed. Not always:
// Add refuses a step that takes the sum to ±2^62, so a sum that is outside
// only transiently raises the flag under one partition and not under
// another. That is as old as j-striping (board.stripeLen cuts differently
// under GOMAXPROCS 1 and 2); gbackend's six bits of headroom keep real sums
// far from it.
func FuzzForceTile(f *testing.F) {
	nan1 := uint64(0xffffffffffffffff) // all-ones payload: RoundTame keeps a NaN a NaN, but Untame must still exclude it
	specials := []uint64{
		0, 1 << 63, 1, 0x000fffffffffffff, 0x0010000000000000, // ±0, subnormals, smallest normal
		gfixed.FloatBits(math.Ldexp(1, -gfixed.TameExp)), gfixed.FloatBits(math.Ldexp(1, -gfixed.TameExp-1)),
		gfixed.FloatBits(math.Ldexp(1, gfixed.TameExp)), gfixed.FloatBits(math.MaxFloat64),
		gfixed.FloatBits(math.Inf(1)), gfixed.FloatBits(math.Inf(-1)),
		gfixed.FloatBits(math.NaN()), nan1, 0x7ff0000000000001,
	}
	eps64 := gfixed.FloatBits(1.0 / 64)
	// Every lane A scenario is seeded with three lane B's: a j-particle on
	// lane A's exponents, a free point moving with lane A on the exponents
	// rotated (so the lanes overflow different groups), and lane A's own
	// slot on the potential's exponent throughout.
	add := func(seed uint64, flags uint16, epsBits, special uint64, expAcc, expJerk, expPot int, sum int64, cut uint8) {
		f.Add(seed, flags|fzBOnSlot, epsBits, special, expAcc, expJerk, expPot, sum, cut, uint8(seed+3), expAcc, expJerk, expPot)
		f.Add(seed, flags|fzBSharesVel, epsBits, special, expAcc, expJerk, expPot, sum, cut, uint8(0), expPot, expAcc, expJerk)
		f.Add(seed, flags|fzBOnSlot|fzBSharesVel, epsBits, special, expAcc, expJerk, expPot, sum, cut, uint8(0), expPot, expPot, expPot)
	}
	// A softening whose rounded square is subnormal (0x8000000100000, a bit
	// below RoundTame's cut) over a two-slot memory, everything coincident,
	// one mass zero. Any other coincident pair under a subnormal r2 has an
	// infinite force factor and misses its way to forcePair; a massless one
	// adds seven zeros, and only the test of e2 keeps RoundTame off its r2.
	for _, seed := range []uint64{0, 23} {
		add(seed, fzCoincident|fzMass, 0x1ff6a09e6695dc6b, 0, 4, 6, 6, 0, 11)
	}
	for seed := uint64(0); seed < 8; seed++ {
		// Ordinary clusters, cold, planar, coincident with ε = 0 and ε > 0.
		add(seed, 0, eps64, 0, 4, 6, 6, 0, 3)
		add(seed, fzZeroVel, eps64, 0, 4, 6, 6, 0, 0)
		add(seed, fzPlanar, eps64, 0, 4, 6, 6, 0, 200)
		add(seed, fzZeroVel|fzPlanar|fzCoincident, 0, 0, 4, 6, 6, 0, 5)
		add(seed, fzCoincident, eps64, 0, 4, 6, 6, 0, 5)
		add(seed, fzWideMant, eps64, 0, 4, 6, 6, 0, 9)
		// Exponents small enough to overflow one group at a time, all at
		// once, and far enough out that the scale itself is 0 or +Inf.
		add(seed, 0, eps64, 0, -40, 6, 6, 0, 7)
		add(seed, 0, eps64, 0, 4, -40, 6, 0, 7)
		add(seed, 0, eps64, 0, 4, 6, -40, 0, 7)
		add(seed, fzMixedExp, eps64, 0, -30, 6, -12, 0, 7)
		add(seed, fzMixedExp, eps64, 0, 4, 6, 8, 0, 7) // mixed, nothing overflows
		add(seed, fzZeroVel, eps64, 0, -1500, 1500, -1500, 0, 7)
		// A partial as Merge can leave one: at, next to and past ±2^61 / ±2^62.
		for _, sum := range []int64{1<<61 - 1, 1 << 61, -(1 << 61) - 1, 1<<62 - 1, -(1<<62 - 1), 1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64} {
			add(seed, fzPreload, eps64, 0, 4, 6, 6, sum, uint8(seed*37))
		}
		for _, sp := range specials {
			for _, where := range []uint16{fzMass, fzJVel, fzIVel, fzMass | fzJVel | fzCoincident} {
				add(seed, where, eps64, sp, 4, 6, 6, 0, 11)
			}
			add(seed, fzCoincident, sp, 0, 4, 6, 6, 0, 11) // as softening
		}
	}

	f.Fuzz(func(t *testing.T, seed uint64, flags uint16, epsBits, special uint64, expAcc, expJerk, expPot int, sum int64, cut, slotB uint8, expAccB, expJerkB, expPotB int) {
		cfg := Default
		if flags&fzWideMant != 0 {
			cfg.Format.MantBits = 53
		}
		rng := xrand.New(seed)
		unit := func() float64 { return 2*rng.Float64() - 1 }
		nj := 2 + int(seed%23)
		fm := cfg.Format
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
		ipA := IParticle{SelfID: 0, ExpAcc: expAcc % 2000, ExpJerk: expJerk % 2000, ExpPot: expPot % 2000}
		for c := 0; c < 3; c++ {
			ipA.X[c], ipA.V[c] = ch.px[c][0], ch.pv[c][0]
		}
		if flags&fzCoincident != 0 {
			for c := 0; c < 3; c++ {
				ch.px[c][1] = ipA.X[c]
				ch.px[c][nj-1] = ipA.X[c]
			}
		}
		if flags&fzZeroVel != 0 {
			for c := 0; c < 3; c++ {
				ipA.V[c] = 0
				for k := range js {
					ch.pv[c][k] = 0
				}
			}
		}
		if flags&fzPlanar != 0 {
			ipA.X[2], ipA.V[2] = 0, 0
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
			ipA.V[rng.Intn(3)] = sp
		}
		// Lane B after the edits, so it sees the planes as the kernel will.
		ipB := IParticle{SelfID: nj, ExpAcc: expAccB % 2000, ExpJerk: expJerkB % 2000, ExpPot: expPotB % 2000}
		for c := 0; c < 3; c++ {
			x, err := fm.ToFixed(4 * unit())
			if err != nil {
				t.Fatal(err)
			}
			ipB.X[c], ipB.V[c] = x, fm.Round(unit())
		}
		if flags&fzBOnSlot != 0 {
			k := int(slotB) % nj
			ipB.SelfID = ch.id[k]
			for c := 0; c < 3; c++ {
				ipB.X[c], ipB.V[c] = ch.px[c][k], ch.pv[c][k]
			}
		}
		if flags&fzBSharesVel != 0 {
			ipB.V = ipA.V
		}

		var freshA, freshB Partial
		freshA.Init(fm, ipA.ExpAcc, ipA.ExpJerk, ipA.ExpPot)
		freshB.Init(fm, ipB.ExpAcc, ipB.ExpJerk, ipB.ExpPot)
		startA, startB := freshA, freshB
		all := [7]*gfixed.Accum{&startA.Acc[0], &startA.Acc[1], &startA.Acc[2], &startA.Jerk[0], &startA.Jerk[1], &startA.Jerk[2], &startA.Pot}
		if flags&fzMixedExp != 0 {
			all[rng.Intn(6)].Init(fm, ipA.ExpPot)
		}
		if flags&fzPreload != 0 {
			all[seed%7].Sum = sum
		}

		eps := gfixed.FloatFromBits(epsBits)
		e2 := fm.Round(eps * eps)
		r, invPos := fm.Rounder(), fm.PosResolution()
		ref := func(ip *IParticle, p Partial, ranges ...int) Partial {
			for q := 0; q < len(ranges); q += 2 {
				forceTileRef(ch, ip, &p, e2, r, invPos, ranges[q], ranges[q+1])
			}
			return p
		}
		check := func(what string, got, want Partial) {
			t.Helper()
			if !samePartial(&got, &want) {
				t.Fatalf("%s:\n got %+v\nwant %+v", what, got, want)
			}
		}

		// ipA over n slots from loA beside ipB over n slots from loB: as
		// lanes A and B, or swapped, so that lane B takes the edited partial.
		var gotA, gotB Partial
		lanes := func(swapped bool, loA, loB, n int) {
			if swapped {
				ch.forceTile(&ipB, &gotB, loB, &ipA, &gotA, loA, n, e2, r, invPos)
			} else {
				ch.forceTile(&ipA, &gotA, loA, &ipB, &gotB, loB, n, e2, r, invPos)
			}
		}
		// Both on one tile; then on different slots: ipA takes [0, mid) while
		// ipB takes [nj-mid, nj), then ipA the rest while ipB starts over from
		// slot 0. For ipA that is the range cut into two tiles, which must
		// change nothing; ipB's reference walks its slots in the same order.
		mid := int(cut) % (nj + 1)
		wantA, wantB := ref(&ipA, startA, 0, nj), ref(&ipB, startB, 0, nj)
		wantBApart := ref(&ipB, startB, nj-mid, nj, 0, nj-mid)
		for _, swapped := range []bool{false, true} {
			gotA, gotB = startA, startB
			lanes(swapped, 0, 0, nj)
			what := "lanes as given"
			if swapped {
				what = "lanes swapped"
			}
			check(what+", one tile, ipA", gotA, wantA)
			check(what+", one tile, ipB", gotB, wantB)
			gotA, gotB = startA, startB
			lanes(swapped, 0, nj-mid, mid)
			lanes(swapped, mid, 0, nj-mid)
			check(what+", apart, ipA", gotA, wantA)
			check(what+", apart, ipB", gotB, wantBApart)
		}

		// A batch of three: a pair of lanes, then lane A's particle alone,
		// over the ranges on either side of mid.
		is := []IParticle{ipA, ipB, ipA}
		dst := make([]Partial, len(is))
		for _, rg := range [][2]int{{0, mid}, {mid, nj}} {
			lo, hi := rg[0], rg[1]
			ch.ForceBatchRangeInto(dst, 0, is, eps, lo, hi)
			wholeA := ref(&ipA, freshA, lo, hi)
			check("batch, first of the pair", dst[0], wholeA)
			check("batch, second of the pair", dst[1], ref(&ipB, freshB, lo, hi))
			h := (hi - lo) / 2
			front := ref(&ipA, freshA, lo, lo+h, lo+2*h, hi)
			back := ref(&ipA, freshA, lo+h, lo+2*h)
			front.Merge(&back)
			check("batch, lone particle against its halves", dst[2], front)
			if !front.Overflowed() && !wholeA.Overflowed() {
				check("batch, lone particle against the whole range", dst[2], wholeA)
			}
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
	// A prediction time so far out that the snap term is all of the result,
	// under the identity rounder (2 + 51 = 53 bits), which hides no last
	// place: (s·dt)/3 is not s·(dt/3) there.
	for seed := uint64(0); seed < 16; seed++ {
		f.Add(seed, gfixed.FloatBits(0x1.3p60), uint8(13), uint8(51))
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
