package bench

import (
	"fmt"
	"math"

	"grape6/internal/board"
	"grape6/internal/chip"
	"grape6/internal/direct"
	"grape6/internal/gbackend"
	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/nbody"
	"grape6/internal/perfmodel"
	"grape6/internal/simnet"
	"grape6/internal/tree"
	"grape6/internal/units"
	"grape6/internal/vec"
	"grape6/internal/xrand"
)

// measureStepRatio integrates briefly and returns the harmonic-mean /
// minimum ratio of the individual timesteps — the quantity behind the
// paper's "factor 100" shared-timestep argument.
func measureStepRatio(sys *nbody.System) (float64, error) {
	it, err := hermite.New(sys, hermite.NewDirectBackend(), hermite.DefaultParams(1.0/64))
	if err != nil {
		return 0, err
	}
	it.Run(1.0 / 64)
	return tree.StepRatio(sys.Step), nil
}

// RunAblationMantissa demonstrates the word-length design rule of Section
// 3.4 ("the word length itself is chosen as such"): below ~28 pipeline
// mantissa bits the Aarseth timestep criterion is dominated by arithmetic
// noise and the block count explodes.
func RunAblationMantissa(o *Options) (Figure, error) {
	e := Figure{
		ID:    "a1",
		Title: "ablation: pipeline mantissa width vs block-step count",
		Paper: "design-rule reproduction: word lengths chosen so arithmetic error never drives the integrator",
	}
	n := 48
	until := 0.05
	if o.Quick {
		until = 0.025
	}
	blocks := func(mant uint) (int64, error) {
		cfg := board.Default
		cfg.ChipsPerModule = 2
		cfg.ModulesPerBoard = 2
		cfg.Boards = 1
		cfg.Chip.Format.MantBits = mant
		gb := gbackend.New(board.New(cfg))
		defer gb.Close()
		it, err := hermite.New(model.Plummer(n, xrand.New(o.Seed)), gb, hermite.DefaultParams(1.0/64))
		if err != nil {
			return 0, err
		}
		it.Run(until)
		return it.Blocks, nil
	}
	s := Series{Label: "block steps per run", Units: "blocks"}
	for _, mant := range []uint{24, 26, 28, 30, 32, 40} {
		nb, err := blocks(mant)
		if err != nil {
			return e, err
		}
		s.Points = append(s.Points, Point{N: int(mant), Value: float64(nb)})
	}
	e.Series = append(e.Series, s)
	e.Notes = append(e.Notes, "x = mantissa bits; blow-up at the short end is the timestep-noise cliff")
	return e, nil
}

// RunAblationAccumulator quantifies the block-floating-point accumulator
// width against force accuracy — the other half of the Section 3.4
// number-format design.
func RunAblationAccumulator(o *Options) (Figure, error) {
	e := Figure{
		ID:    "a2",
		Title: "ablation: accumulator fraction bits vs force error",
		Paper: "fixed-point block-float summation: error set by quantization, not by N or order",
	}
	n := 256
	sys := model.Plummer(n, xrand.New(o.Seed))
	eps := 1.0 / 64
	ref := direct.JSet{Mass: sys.Mass, Pos: sys.Pos, Vel: sys.Vel}

	s := Series{Label: "max relative acc error", Units: "relative"}
	for _, frac := range []uint{12, 16, 24, 32, 40, 48} {
		cfg := chip.Default
		cfg.Format.AccumFrac = frac
		ch := chip.New(cfg)
		js := make([]chip.JParticle, n)
		for i := 0; i < n; i++ {
			p, err := chip.MakeJParticle(cfg.Format, i, 0, sys.Mass[i], sys.Pos[i], sys.Vel[i], vec.Zero, vec.Zero, vec.Zero)
			if err != nil {
				return e, err
			}
			js[i] = p
		}
		if err := ch.LoadJ(js); err != nil {
			return e, err
		}
		var maxRel float64
		ps := make([]chip.Partial, 1)
		for i := 0; i < 16; i++ {
			ip := chip.IParticle{SelfID: i, ExpAcc: 4, ExpJerk: 6, ExpPot: 6}
			x, v := chip.PredictParticle(cfg.Format, &js[i], 0)
			ip.X, ip.V = x, v
			ch.ForceBatchInto(ps, 0, []chip.IParticle{ip}, eps)
			acc, _, _ := chip.PartialValues(&ps[0])
			want := direct.EvalSkip(sys.Pos[i], sys.Vel[i], ref, eps, i)
			rel := acc.Dist(want.Acc) / want.Acc.Norm()
			if rel > maxRel {
				maxRel = rel
			}
		}
		s.Points = append(s.Points, Point{N: int(frac), Value: maxRel})
	}
	e.Series = append(e.Series, s)
	e.Notes = append(e.Notes, "x = accumulator fraction bits below the block exponent")
	return e, nil
}

// RunAblationVMP reproduces the Section 3.4 parallelism-degree argument:
// the efficiency of a machine whose pipelines serve B i-particles per pass
// collapses when typical blocks are smaller than B. GRAPE-6 chose local
// memories to keep B at 48 per chip; a GRAPE-4-style shared-memory design
// would have pushed it to ~1000.
func RunAblationVMP(o *Options) (Figure, error) {
	e := Figure{
		ID:    "a3",
		Title: "ablation: i-parallelism degree vs single-node efficiency",
		Paper: "Section 3.4: degree ~1000 'too large ... for star clusters with small, high-density cores'",
	}
	w, err := o.Workload(units.SoftConstant)
	if err != nil {
		return e, err
	}
	for _, batch := range []int{48, 192, 768} {
		m := perfmodel.SingleNode(simnet.NS83820, perfmodel.Athlon)
		// Re-shape the hardware: same peak, different i-parallelism.
		m.Attach.Chip.VMP = batch / m.Attach.Chip.Pipelines
		s := Series{Label: fmt.Sprintf("i-batch %d", batch), Units: "efficiency"}
		for _, n := range o.CurveNs() {
			s.Points = append(s.Points, Point{N: n, Value: m.Efficiency(n, w.MeanBlockSize(n))})
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// RunAblationGrape4 compares the predecessor machine against GRAPE-6
// configurations — Section 3's design-evolution argument ("two orders of
// magnitude faster than that of GRAPE-4" at scale, but with carefully
// bounded i-parallelism so that small-core star clusters still run well).
func RunAblationGrape4(o *Options) (Figure, error) {
	e := Figure{
		ID:    "a6",
		Title: "ablation: GRAPE-4 (1 Tflops, batch 384) vs GRAPE-6 configurations",
		Paper: "Section 3: ~100x chip speedup; parallelism kept ≤400 'not much different from full-size GRAPE-4'",
	}
	w, err := o.Workload(units.SoftConstant)
	if err != nil {
		return e, err
	}
	for _, c := range []struct {
		label string
		m     perfmodel.Machine
	}{
		{"GRAPE-4 (full machine)", perfmodel.Grape4Machine()},
		{"GRAPE-6 single node", perfmodel.SingleNode(simnet.NS83820, perfmodel.Athlon)},
		{"GRAPE-6 full machine", perfmodel.MultiCluster(4, simnet.Intel82540EM, perfmodel.P4)},
	} {
		s := Series{Label: c.label, Units: "Gflops"}
		for _, n := range o.CurveNs() {
			s.Points = append(s.Points, Point{N: n, Value: c.m.Speed(n, w.MeanBlockSize(n)) / 1e9})
		}
		e.Series = append(e.Series, s)
	}
	e.Notes = append(e.Notes,
		fmt.Sprintf("peaks: GRAPE-4 %.2f Tflops, GRAPE-6 single node %.2f, full %.2f",
			perfmodel.Grape4Machine().PeakFlops()/1e12,
			perfmodel.SingleNode(simnet.NS83820, perfmodel.Athlon).PeakFlops()/1e12,
			perfmodel.MultiCluster(4, simnet.Intel82540EM, perfmodel.P4).PeakFlops()/1e12))
	return e, nil
}

// RunAblationHostGrid compares the paper's two topology options (Section
// 3.2): the r²-host grid (each host needs only O(N/r) communication but
// you need r² hosts) versus the GRAPE-side hardware network with a 1-D
// host array. We compare predicted per-block synchronization+exchange cost.
func RunAblationHostGrid(o *Options) (Figure, error) {
	e := Figure{
		ID:    "a5",
		Title: "ablation: r^2-host grid vs GRAPE hardware network (sync cost per block)",
		Paper: "Section 3.2: the hybrid chosen 'to make a reasonable compromise'",
	}
	w, err := o.Workload(units.SoftConstant)
	if err != nil {
		return e, err
	}
	nic := simnet.NS83820
	gridCost := Series{Label: "16-host 2D grid (host-network updates)", Units: "s/block"}
	hwCost := Series{Label: "4-host + GRAPE network (sync only)", Units: "s/block"}
	for _, n := range o.CurveNs() {
		nb := int(math.Round(w.MeanBlockSize(n)))
		if nb < 1 {
			nb = 1
		}
		// Host grid (r=4): diagonal broadcasts nb/r updates to 2(r-1)
		// hosts plus an allreduce over 16.
		r := 4
		upBytes := float64(nb/r+1) * 176 * float64(2*(r-1))
		grid := upBytes/nic.Bandwidth + 4*nic.OneWay(8)
		gridCost.Points = append(gridCost.Points, Point{N: n, Value: grid})
		// GRAPE network: the boards move the data; hosts only butterfly.
		hw := 2 * nic.OneWay(8)
		hwCost.Points = append(hwCost.Points, Point{N: n, Value: hw})
	}
	e.Series = append(e.Series, gridCost, hwCost)
	e.Notes = append(e.Notes,
		"the hardware network wins per block, but offers no sub-machine partitioning — the flexibility trade the paper describes")
	return e, nil
}
