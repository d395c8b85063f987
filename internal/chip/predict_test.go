package chip

import (
	"math"
	"testing"

	"grape6/internal/gfixed"
	"grape6/internal/vec"
	"grape6/internal/xrand"
)

// loadRandomChip fills a chip with n pseudo-random bound particles and
// returns the chip together with the host-side particle images.
func loadRandomChip(t *testing.T, n int, seed uint64) (*Chip, []JParticle) {
	t.Helper()
	rng := xrand.New(seed)
	ch := New(Default)
	js := make([]JParticle, n)
	for i := 0; i < n; i++ {
		u := func(s float64) float64 { return s * (2*rng.Float64() - 1) }
		js[i] = makeJ(t, i, 0, 1.0/float64(n),
			vec.New(u(1), u(1), u(1)),
			vec.New(u(0.5), u(0.5), u(0.5)),
			vec.New(u(2), u(2), u(2)),
			vec.New(u(4), u(4), u(4)),
			vec.New(u(8), u(8), u(8)))
	}
	if err := ch.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	return ch, js
}

// requireSameCache fails unless both chips hold bit-identical prediction
// caches over all slots.
func requireSameCache(t *testing.T, got, want *Chip, label string) {
	t.Helper()
	if len(got.px[0]) != len(want.px[0]) {
		t.Fatalf("%s: cache length %d vs %d", label, len(got.px[0]), len(want.px[0]))
	}
	for c := 0; c < 3; c++ {
		for s := range got.px[c] {
			if got.px[c][s] != want.px[c][s] {
				t.Fatalf("%s: slot %d position plane %d differs: %v vs %v", label, s, c, got.px[c][s], want.px[c][s])
			}
			if got.pv[c][s] != want.pv[c][s] {
				t.Fatalf("%s: slot %d velocity plane %d differs: %v vs %v", label, s, c, got.pv[c][s], want.pv[c][s])
			}
		}
	}
}

// TestSlotPatchMatchesColdRepredict pins WriteJ against a current
// prediction cache: a slot write invalidates the cache, and the next
// Predict at the same time leaves it bit-identical to a fresh chip loaded
// with the updated set and predicted from scratch.
func TestSlotPatchMatchesColdRepredict(t *testing.T) {
	const n = 64
	ch, js := loadRandomChip(t, n, 5)
	tm := math.Ldexp(1, -8)
	ch.Predict(tm)

	// Rewrite a scattering of slots with perturbed particles — the
	// corrector's UpdateJ traffic.
	f := Default.Format
	for _, s := range []int{0, 3, 17, 40, n - 1} {
		p := js[s]
		p.T0 = tm / 2
		for c := 0; c < 3; c++ {
			p.V[c] = f.Round(p.V[c] + math.Ldexp(1, -12))
			p.A[c] = f.Round(p.A[c] - math.Ldexp(1, -10))
		}
		js[s] = p
		if err := ch.WriteJ(s, p); err != nil {
			t.Fatal(err)
		}
	}
	if ch.PredictedAt(tm) {
		t.Fatal("WriteJ left the prediction cache valid")
	}
	ch.Predict(tm)

	// Cold reference: fresh chip, updated particle set, full predict.
	cold := New(Default)
	if err := cold.LoadJ(js); err != nil {
		t.Fatal(err)
	}
	cold.Predict(tm)
	requireSameCache(t, ch, cold, "written vs cold")
}

// TestWriteJStalePredictionInvalidates pins WriteJ on a cold cache: with
// no current prediction the cache must stay invalid.
func TestWriteJStalePredictionInvalidates(t *testing.T) {
	ch, js := loadRandomChip(t, 8, 9)
	if ch.PredictedAt(0.25) {
		t.Fatal("fresh chip claims a prediction")
	}
	p := js[2]
	p.Mass = p.Mass * 2
	if err := ch.WriteJ(2, p); err != nil {
		t.Fatal(err)
	}
	if ch.PredictedAt(0.25) {
		t.Fatal("WriteJ on a cold cache marked it predicted")
	}
}

// TestPredictRangeStripingBitIdentical verifies the Section 3.4-style
// invariance the board's striped force pass relies on: predicting the memory
// in arbitrary disjoint stripes produces exactly the bits of one full
// Predict pass.
func TestPredictRangeStripingBitIdentical(t *testing.T) {
	const n = 97 // deliberately not a multiple of the stripe sizes
	full, js := loadRandomChip(t, n, 21)
	tm := 3 * math.Ldexp(1, -9)
	full.Predict(tm)

	for _, stripe := range []int{1, 7, 16, 64, n} {
		striped := New(Default)
		if err := striped.LoadJ(js); err != nil {
			t.Fatal(err)
		}
		// Stripe back-to-front so ordering effects would show up too.
		for hi := n; hi > 0; hi -= stripe {
			lo := hi - stripe
			if lo < 0 {
				lo = 0
			}
			striped.PredictRange(tm, lo, hi)
		}
		striped.MarkPredicted(tm)
		if !striped.PredictedAt(tm) {
			t.Fatal("MarkPredicted did not validate the cache")
		}
		requireSameCache(t, striped, full, "striped predict")
	}
}

// TestForceBatchRangeIntoPartition verifies that splitting the j-loop into
// ranges and merging the partials is bit-identical to one full pass —
// the within-chip analogue of the across-chip partition invariance.
func TestForceBatchRangeIntoPartition(t *testing.T) {
	const n = 61
	ch, js := loadRandomChip(t, n, 33)
	tm := math.Ldexp(1, -7)
	eps := 1.0 / 64

	is := make([]IParticle, 5)
	for q := range is {
		x, v := PredictParticle(Default.Format, &js[q*7], tm)
		is[q] = IParticle{X: x, V: v, SelfID: js[q*7].ID, ExpAcc: 4, ExpJerk: 6, ExpPot: 6}
	}

	whole := make([]Partial, len(is))
	ch.ForceBatchInto(whole, tm, is, eps)

	for _, cut := range []int{1, 17, 32, n - 1} {
		a := make([]Partial, len(is))
		b := make([]Partial, len(is))
		ch.ForceBatchRangeInto(a, tm, is, eps, 0, cut)
		ch.ForceBatchRangeInto(b, tm, is, eps, cut, n)
		for q := range is {
			a[q].Merge(&b[q])
			if a[q] != whole[q] {
				t.Fatalf("cut %d: merged partial %d differs from whole-pass partial", cut, q)
			}
		}
	}
}

// TestBatchCyclesModel pins the analytic cycle model against the value the
// batched force path reports, for several batch shapes.
func TestBatchCyclesModel(t *testing.T) {
	ch, js := loadRandomChip(t, 48, 7)
	eps := 1.0 / 64
	for _, ni := range []int{1, 3, 48, 49, 100} {
		is := make([]IParticle, ni)
		for q := range is {
			x, v := PredictParticle(Default.Format, &js[q%48], 0)
			is[q] = IParticle{X: x, V: v, SelfID: -1, ExpAcc: 4, ExpJerk: 6, ExpPot: 6}
		}
		dst := make([]Partial, ni)
		got := ch.ForceBatchInto(dst, 0, is, eps)
		want := ch.Config().BatchCycles(ni, ch.NJ())
		if got != want {
			t.Errorf("ni=%d: ForceBatchInto reported %d cycles, BatchCycles says %d", ni, got, want)
		}
	}
}

// TestPredictDtZeroFastPath pins the dt == 0 shortcut: predicting a
// particle to its own epoch must reproduce the stored position bits and
// the velocity rounded through the pipeline's output stage, exactly as
// the general Horner path does.
func TestPredictDtZeroFastPath(t *testing.T) {
	f := gfixed.Grape6
	j := makeJ(t, 0, 0.125, 0.5,
		vec.New(0.1, -0.2, 0.3), vec.New(-1, 0, 2),
		vec.New(0.5, 0.25, -0.5), vec.New(1, -1, 1), vec.New(2, 2, -2))
	x, v := PredictParticle(f, &j, 0.125)
	if x != j.X {
		t.Errorf("dt=0 predicted position %v, stored %v", x, j.X)
	}
	for c := 0; c < 3; c++ {
		if want := f.Round(j.V[c]); v[c] != want {
			t.Errorf("dt=0 predicted velocity[%d] = %v, want Round(stored) = %v", c, v[c], want)
		}
	}
}
