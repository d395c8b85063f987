// Package timing is the trace-driven whole-system simulator: it replays a
// block-step trace (measured or synthetic, from internal/sched) against a
// machine configuration (internal/perfmodel) and accumulates the wall-
// clock cost block by block. This is how the reproduction obtains
// paper-scale performance numbers — the functional emulator supplies the
// block structure at feasible N, the power-law workload model extends it
// to N = 2×10^6, and this package turns either into Figures 13-19 points
// and the Section 5 application estimates.
package timing

import (
	"fmt"

	"grape6/internal/hermite"
	"grape6/internal/perfmodel"
	"grape6/internal/sched"
	"grape6/internal/units"
)

// Report is the outcome of replaying one trace on one machine. Its
// embedded BlockCost holds the wall-clock component totals in seconds
// over every block, and its Total the predicted wall-clock time.
type Report struct {
	perfmodel.BlockCost
	Machine perfmodel.Machine
	N       int
	Blocks  int64
	Steps   int64

	// SimDuration is the simulated time covered by the trace, in N-body
	// units.
	SimDuration float64
}

// StepsPerSecond returns the individual-step rate.
func (r Report) StepsPerSecond() float64 {
	w := r.Total()
	if w <= 0 {
		return 0
	}
	return float64(r.Steps) / w
}

// TimePerStep returns the mean wall-clock time per individual step — the
// y-axis of Figures 14, 16 and 18.
func (r Report) TimePerStep() float64 {
	if r.Steps == 0 {
		return 0
	}
	return r.Total() / float64(r.Steps)
}

// SpeedFlops returns the sustained speed under eq. (9).
func (r Report) SpeedFlops() float64 {
	return units.Speed(r.N, r.StepsPerSecond())
}

// Efficiency returns sustained/peak.
func (r Report) Efficiency() float64 {
	return r.SpeedFlops() / r.Machine.PeakFlops()
}

// DominantComponent names the largest cost component — the paper's
// bottleneck analysis (Section 4.4).
func (r Report) DominantComponent() string {
	best, name := r.Host, "host"
	if r.Comm > best {
		best, name = r.Comm, "comm"
	}
	if r.Grape > best {
		best, name = r.Grape, "grape"
	}
	if r.Sync > best {
		name = "sync"
	}
	return name
}

// String summarises the report.
func (r Report) String() string {
	return fmt.Sprintf("%s N=%d: %.3g Gflops (%.1f%% of peak), %.3g s/step, bottleneck=%s",
		r.Machine.Name, r.N, r.SpeedFlops()/1e9, 100*r.Efficiency(),
		r.TimePerStep(), r.DominantComponent())
}

// Simulate replays the trace on the machine.
func Simulate(m perfmodel.Machine, tr *sched.Trace) Report {
	rep := Report{Machine: m, N: tr.N, SimDuration: tr.Duration}
	for _, b := range tr.Blocks {
		c := m.BlockTime(tr.N, b.Size)
		rep.Host += c.Host
		rep.Comm += c.Comm
		rep.Grape += c.Grape
		rep.Sync += c.Sync
		rep.Blocks++
		rep.Steps += int64(b.Size)
	}
	return rep
}

// ReportForBlocks replays an explicit sequence of block sizes — such as
// the per-round global block sizes a co-simulation run records — on the
// machine. It is the bridge between the event-driven co-simulation and
// the analytic model: both price the same block structure, so their
// component totals can be cross-checked.
func ReportForBlocks(m perfmodel.Machine, n int, sizes []int) Report {
	tr := &sched.Trace{N: n, Blocks: make([]hermite.BlockStat, len(sizes))}
	for i, s := range sizes {
		tr.Blocks[i] = hermite.BlockStat{Size: s}
	}
	return Simulate(m, tr)
}

// Application describes a production run for the Section 5 accounting.
type Application struct {
	Name       string
	N          int
	TotalSteps int64   // individual particle steps over the whole run
	MeanBlock  float64 // mean block size (particles per block step)
	FileIO     float64 // wall-clock overhead for snapshots etc., seconds
}

// Paper applications (Section 5), with the exact step counts the paper
// reports. Mean block sizes follow the ~2% of N typical of the benchmark
// traces.
var (
	// KuiperBelt: "We used 1.8M particles... the number of individual
	// steps was 1.911×10^10. The whole simulation, including file
	// operations, took 16.30 hours... 33.4 Tflops."
	KuiperBelt = Application{
		Name: "kuiper-belt", N: 1_800_000, TotalSteps: 19_110_000_000,
		MeanBlock: 0.02 * 1_800_000, FileIO: 1800,
	}
	// BHBinary: "we used 2M particles... 4.143×10^10 [steps]... took
	// 37.19 hours... 35.3 Tflops."
	BHBinary = Application{
		Name: "bh-binary", N: 2_000_000, TotalSteps: 41_430_000_000,
		MeanBlock: 0.02 * 2_000_000, FileIO: 3600,
	}
)

// AppReport is the predicted cost of an application run.
type AppReport struct {
	App    Application
	Mach   perfmodel.Machine
	Wall   float64 // seconds, including file I/O
	Flops  float64 // total floating-point operations (57 per interaction)
	Tflops float64 // sustained speed
}

// Hours returns the wall-clock in hours.
func (a AppReport) Hours() float64 { return a.Wall / 3600 }

// EstimateApplication predicts the wall-clock and sustained speed of an
// application run on the machine, using the paper's flop accounting
// (TotalSteps × (N-1) × 57; the paper multiplies by N-1: "1.911×10^10 ×
// 1799999 × 57"). The per-step time is evaluated at the mean block size,
// which understates the cost of the skewed real block-size distribution
// (Jensen); EstimateApplicationTrace is the distribution-weighted variant.
func EstimateApplication(m perfmodel.Machine, app Application) AppReport {
	perStep := m.TimePerStep(app.N, app.MeanBlock)
	return appReport(m, app, perStep)
}

// EstimateApplicationTrace predicts the application cost with the
// per-step time weighted over a block-size distribution (a synthetic
// trace at the application's N), which captures the fixed per-block
// overheads that many small blocks incur.
func EstimateApplicationTrace(m perfmodel.Machine, app Application, tr *sched.Trace) AppReport {
	rep := Simulate(m, tr)
	return appReport(m, app, rep.TimePerStep())
}

func appReport(m perfmodel.Machine, app Application, perStep float64) AppReport {
	wall := float64(app.TotalSteps)*perStep + app.FileIO
	flops := float64(app.TotalSteps) * float64(app.N-1) * units.FlopsPerInteraction
	return AppReport{
		App: app, Mach: m, Wall: wall, Flops: flops,
		Tflops: flops / wall / 1e12,
	}
}
