package chip

import (
	"math"
	"testing"

	"grape6/internal/cpuid"
	"grape6/internal/gfixed"
	"grape6/internal/xrand"
)

// fzFar is a scenario bit of FuzzForceTileQuad: j-particles at and around
// the edges of what the four-lane loop converts exactly. The last slot
// sits at +1.5·2^62 in x, so that its differences from the batch's
// far-side i-particle (at −1.5·2^62) wrap in int64; the two before it sit
// 2^51 above and 2^51 below slot 0's x, the one boundary difference the
// conversion must refuse and the one it must take.
const fzFar = fzBOnSlot << 1

// quadPaths are the settings of avx2 that the four-lane tests hold against
// the reference: both on an AVX2 host, the Go path alone elsewhere.
func quadPaths() []bool {
	if cpuid.AVX2 {
		return []bool{true, false}
	}
	return []bool{false}
}

// setAVX2 chooses ForceBatchRangeInto's path until the test ends.
func setAVX2(t testing.TB, on bool) {
	old := avx2
	avx2 = on
	t.Cleanup(func() { avx2 = old })
}

// quadChip loads nj seeded j-particles into a chip of configuration cfg,
// the ids of each two neighbouring slots swapped (so that the
// nearest-neighbour unit meets ids both falling and rising), predicts them to t = 0, and
// applies flags' edits to the predicted planes
// (so values the predictor would round or refuse still reach the kernel),
// sp being the special value of fzMass and fzJVel.
func quadChip(t testing.TB, cfg Config, seed uint64, nj int, flags uint16, sp float64) *Chip {
	t.Helper()
	rng := xrand.New(seed)
	unit := func() float64 { return 2*rng.Float64() - 1 }
	fm := cfg.Format
	js := make([]JParticle, nj)
	for k := range js {
		js[k].ID = k ^ 1
		js[k].Mass = (0.5 + rng.Float64()) / float64(nj)
		for c := 0; c < 3; c++ {
			x, err := fm.ToFixed(4 * unit())
			if err != nil {
				t.Fatal(err)
			}
			js[k].X[c], js[k].V[c] = x, unit()
		}
	}
	ch := New(cfg)
	if err := ch.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	ch.Predict(0)
	if flags&fzCoincident != 0 {
		for c := 0; c < 3; c++ {
			ch.px[c][nj-1] = ch.px[c][0]
		}
	}
	if flags&fzZeroVel != 0 {
		for c := 0; c < 3; c++ {
			clear(ch.pv[c])
		}
	}
	if flags&fzPlanar != 0 {
		clear(ch.px[2])
		clear(ch.pv[2])
	}
	if flags&fzMass != 0 {
		ch.mass[rng.Intn(nj)] = sp
	}
	if flags&fzJVel != 0 {
		ch.pv[rng.Intn(3)][rng.Intn(nj)] = sp
	}
	if flags&fzFar != 0 {
		x0 := ch.px[0][0]
		ch.px[0][nj-1] = 3 << 61
		if nj > 2 {
			ch.px[0][nj-2] = x0 + 1<<51
		}
		if nj > 3 {
			ch.px[0][nj-3] = x0 - 1<<51
		}
	}
	return ch
}

// quadBatch returns ni i-particles for ch: the even ones on j-slots (their
// self-pairs are r2 = e2), the odd ones free points, and with fzFar the
// last one at −1.5·2^62 in x. Particle q's three exponents are exps rotated
// by q and raised by q, so that no two lanes of a quad share all three.
func quadBatch(t testing.TB, ch *Chip, seed uint64, ni int, flags uint16, exps [3]int) []IParticle {
	t.Helper()
	rng := xrand.New(seed + 1)
	fm := ch.Config().Format
	is := make([]IParticle, ni)
	for q := range is {
		ip := &is[q]
		ip.ExpAcc, ip.ExpJerk, ip.ExpPot = exps[q%3]+q, exps[(q+1)%3]+q, exps[(q+2)%3]+q
		if q%2 == 0 {
			k := q / 2 % ch.NJ()
			ip.SelfID = ch.id[k]
			for c := 0; c < 3; c++ {
				ip.X[c], ip.V[c] = ch.px[c][k], ch.pv[c][k]
			}
			continue
		}
		ip.SelfID = ch.NJ() + q
		for c := 0; c < 3; c++ {
			x, err := fm.ToFixed(4 * (2*rng.Float64() - 1))
			if err != nil {
				t.Fatal(err)
			}
			ip.X[c], ip.V[c] = x, fm.Round(2*rng.Float64()-1)
		}
		if flags&fzZeroVel != 0 {
			ip.V = [3]float64{}
		}
		if flags&fzPlanar != 0 {
			ip.X[2], ip.V[2] = 0, 0
		}
	}
	if flags&fzFar != 0 {
		is[ni-1].X[0] = -(3 << 61)
	}
	return is
}

// refBatch is what ForceBatchRangeInto must give for is over [lo, hi): each
// partial initialised and streamed by forceTileRef, except the lone
// i-particle of an odd batch, which streams the two halves of the range
// into two partials that merge (see FuzzForceTile for why the two can
// differ, in Overflow only).
func refBatch(ch *Chip, is []IParticle, eps float64, lo, hi int) []Partial {
	fm := ch.Config().Format
	e2 := fm.Round(eps * eps)
	r, invPos := fm.Rounder(), fm.PosResolution()
	want := make([]Partial, len(is))
	for q := range is {
		ip := &is[q]
		want[q].Init(fm, ip.ExpAcc, ip.ExpJerk, ip.ExpPot)
		if q < len(is)&^1 {
			forceTileRef(ch, ip, &want[q], e2, r, invPos, lo, hi)
			continue
		}
		h := (hi - lo) / 2
		back := want[q]
		forceTileRef(ch, ip, &want[q], e2, r, invPos, lo, lo+h)
		forceTileRef(ch, ip, &back, e2, r, invPos, lo+h, lo+2*h)
		forceTileRef(ch, ip, &want[q], e2, r, invPos, lo+2*h, hi)
		want[q].Merge(&back)
	}
	return want
}

// TestForceQuadsMatchRef holds ForceBatchRangeInto, four-lane loop and Go
// path alike, against forceTileRef: batches of 4 to 13 (a remainder of 0
// to 3 after the quads) against 1 to 9, 64 and 65 j-particles, over the
// whole memory and three sub-ranges, under three softenings (ε = 0 makes
// every on-slot i-particle's self-pair r2 = 0), as drawn, with the far
// j-particles whose differences wrap in int64 or reach 2^51, and with the
// last slot on the first (two slots at one r2 from every i-particle: the
// nearest-neighbour unit's tie).
func TestForceQuadsMatchRef(t *testing.T) {
	for _, on := range quadPaths() {
		setAVX2(t, on)
		for _, nj := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 65} {
			for _, flags := range []uint16{0, fzFar, fzCoincident} {
				ch := quadChip(t, Default, uint64(nj), nj, flags, 0)
				for _, eps := range []float64{0, 1.0 / 1024, 1.0 / 64} {
					for ni := 4; ni <= 13; ni++ {
						is := quadBatch(t, ch, uint64(ni), ni, flags, [3]int{4, 6, 6})
						for _, rg := range [][2]int{{0, nj}, {1, nj}, {nj / 3, nj - nj/3}, {nj - 1, nj}} {
							lo, hi := rg[0], rg[1]
							got := make([]Partial, ni)
							ch.ForceBatchRangeInto(got, 0, is, eps, lo, hi)
							want := refBatch(ch, is, eps, lo, hi)
							for q := range got {
								if !samePartial(&got[q], &want[q]) {
									t.Fatalf("avx2=%v nj=%d flags=%#x eps=%v ni=%d [%d, %d): partial %d\n got %+v\nwant %+v",
										on, nj, flags, eps, ni, lo, hi, q, got[q], want[q])
								}
							}
						}
					}
				}
			}
		}
	}
}

// FuzzForceTileQuad is FuzzForceTile's four-lane form. A batch of 4 to 13
// i-particles, each on its own three exponents, half of them on j-slots,
// meets FuzzForceTile's scenarios (special values in a mass, a j- or an
// i-velocity or the softening; coincident, cold and planar sets; block
// exponents that overflow a group; mixed exponents; a partial preloaded at
// or past ±2^61 and ±2^62) and the far j-particles of fzFar. forceQuads is
// held against forceTileRef on partials entered as the scenario leaves
// them, over a fuzzed cut of the memory in two calls, and
// ForceBatchRangeInto, with the four-lane loop and without, against
// refBatch on each side of the cut.
func FuzzForceTileQuad(f *testing.F) {
	eps64 := gfixed.FloatBits(1.0 / 64)
	specials := []uint64{
		0, 1 << 63, 1, 0x0010000000000000,
		gfixed.FloatBits(math.Ldexp(1, -gfixed.TameExp)), gfixed.FloatBits(math.Ldexp(1, -gfixed.TameExp-1)),
		gfixed.FloatBits(math.Ldexp(1, gfixed.TameExp)), gfixed.FloatBits(math.MaxFloat64),
		gfixed.FloatBits(math.Inf(1)), gfixed.FloatBits(math.NaN()), 0xffffffffffffffff,
	}
	for seed := uint64(0); seed < 4; seed++ {
		ni, cut := uint8(seed*3), uint8(seed*7+3)
		for _, flags := range []uint16{0, fzZeroVel, fzPlanar, fzCoincident, fzFar, fzWideMant, fzZeroVel | fzPlanar | fzCoincident} {
			f.Add(seed, flags, eps64, uint64(0), 4, 6, 6, int64(0), uint8(seed), ni, cut)
			f.Add(seed, flags, uint64(0), uint64(0), 4, 6, 6, int64(0), uint8(seed), ni+1, cut)
		}
		for _, exps := range [][3]int{{-40, 6, 6}, {4, -40, 6}, {4, 6, -40}, {-1500, 1500, -1500}} {
			f.Add(seed, uint16(0), eps64, uint64(0), exps[0], exps[1], exps[2], int64(0), uint8(seed), ni, cut)
		}
		f.Add(seed, uint16(fzMixedExp), eps64, uint64(0), -30, 6, -12, int64(0), uint8(seed), ni, cut)
		f.Add(seed, uint16(fzMixedExp), eps64, uint64(0), 4, 6, 8, int64(0), uint8(seed), ni, cut)
		for _, sum := range []int64{1<<61 - 1, 1 << 61, -(1 << 61) - 1, 1<<62 - 1, -(1<<62 - 1), 1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64} {
			f.Add(seed, uint16(fzPreload), eps64, uint64(0), 4, 6, 6, sum, uint8(seed+uint64(sum)%4), ni, cut)
		}
		for _, sp := range specials {
			for _, where := range []uint16{fzMass, fzJVel, fzIVel} {
				f.Add(seed, where, eps64, sp, 4, 6, 6, int64(0), uint8(seed), ni, cut)
			}
			f.Add(seed, uint16(fzCoincident), sp, uint64(0), 4, 6, 6, int64(0), uint8(seed), ni, cut)
		}
	}

	f.Fuzz(func(t *testing.T, seed uint64, flags uint16, epsBits, special uint64, expAcc, expJerk, expPot int, sum int64, lane, ni, cut uint8) {
		defer func() { avx2 = cpuid.AVX2 }()
		cfg := Default
		if flags&fzWideMant != 0 {
			cfg.Format.MantBits = 53
		}
		fm := cfg.Format
		nj := 1 + int(seed%23)
		sp := gfixed.FloatFromBits(special)
		ch := quadChip(t, cfg, seed, nj, flags, sp)
		size := 4 + int(ni)%10
		is := quadBatch(t, ch, seed, size, flags, [3]int{expAcc % 2000, expJerk % 2000, expPot % 2000})
		lane %= uint8(size)
		if flags&fzIVel != 0 {
			is[lane].V[int(seed%3)] = sp
		}
		eps := gfixed.FloatFromBits(epsBits)
		e2 := fm.Round(eps * eps)
		r, invPos := fm.Rounder(), fm.PosResolution()
		mid := int(cut) % (nj + 1)
		check := func(what string, q int, got, want *Partial) {
			t.Helper()
			if !samePartial(got, want) {
				t.Fatalf("%s, i-particle %d of %d:\n got %+v\nwant %+v", what, q, size, *got, *want)
			}
		}

		// The four-lane loop on partials entered as the scenario leaves them.
		start := make([]Partial, size)
		for q := range start {
			start[q].Init(fm, is[q].ExpAcc, is[q].ExpJerk, is[q].ExpPot)
		}
		edit := &start[lane]
		all := [7]*gfixed.Accum{&edit.Acc[0], &edit.Acc[1], &edit.Acc[2], &edit.Jerk[0], &edit.Jerk[1], &edit.Jerk[2], &edit.Pot}
		if flags&fzMixedExp != 0 {
			all[seed%6].Init(fm, is[lane].ExpPot)
		}
		if flags&fzPreload != 0 {
			all[seed%7].Sum = sum
		}
		for _, on := range quadPaths() {
			avx2 = on
			got := append([]Partial(nil), start...)
			done := 0
			for _, rg := range [][2]int{{0, mid}, {mid, nj}} {
				if rg[1] > rg[0] {
					done = ch.forceQuads(got, is, rg[0], rg[1]-rg[0], e2, r, invPos)
				}
			}
			for q := 0; q < done; q++ {
				want := start[q]
				forceTileRef(ch, &is[q], &want, e2, r, invPos, 0, nj)
				check("forceQuads over the cut", q, &got[q], &want)
			}

			// The whole batch path, on each side of the cut.
			for _, rg := range [][2]int{{0, mid}, {mid, nj}} {
				dst := make([]Partial, size)
				ch.ForceBatchRangeInto(dst, 0, is, eps, rg[0], rg[1])
				want := refBatch(ch, is, eps, rg[0], rg[1])
				for q := range dst {
					check("ForceBatchRangeInto", q, &dst[q], &want[q])
				}
			}
		}
	})
}

// BenchmarkForceBatch48x2048 is the hardware i-batch, twelve quads of the
// four-lane loop on an AVX2 host, against a 2048-deep j-memory: the
// kernel's cost per pair, allocation-free.
func BenchmarkForceBatch48x2048(b *testing.B) {
	ch, is := benchChip(b, 2048, 48)
	dst := make([]Partial, len(is))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.ForceBatchInto(dst, 0, is, 1.0/64)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(48*2048), "ns/pair")
}
