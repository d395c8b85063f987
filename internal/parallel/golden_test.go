package parallel

import (
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/nbody"
	"grape6/internal/perfmodel"
	"grape6/internal/simnet"
	"grape6/internal/units"
	"grape6/internal/vtrace"
	"grape6/internal/xrand"
)

// The co-simulation engine rework (value-event DES core, slab mailboxes,
// arena span storage) carries a hard bit-exactness contract: virtual
// times and per-rank phase breakdowns must be IDENTICAL to the
// pointer-heap/map-mailbox engine it replaced. These goldens were
// captured from that engine on the paper sweep (N=128 Plummer, seed 1,
// t=0.03125, NS83820 NIC, Athlon host model) immediately before the
// rework; any drift here means event ordering changed.
type goldenRun struct {
	name     string
	algo     string // as Run takes it
	hosts    int
	clusters int // hybrid only
	vtBits   uint64
	rankHash uint64 // FNV-64a over per-rank per-phase Float64bits
	steps    int64
	blocks   int64
	msgs     int64
	bytes    int64
}

var goldenRuns = []goldenRun{
	{"ring/2", "ring", 2, 0, 0x3fb2660cf6ac0de1, 0xc8041278c28fb373, 3212, 164, 986, 773520},
	{"ring/4", "ring", 4, 0, 0x3fc0eb2aaefaffa8, 0x6bd98e4165802d7d, 3212, 164, 3944, 1552320},
	{"ring/8", "ring", 8, 0, 0x3fcd817ff4685cc4, 0xedb6fb9951ea5264, 3212, 164, 14456, 3115200},
	{"ring/16", "ring", 16, 0, 0x3fda8ccf7e7ac326, 0xdf69f4a3c27da7cf, 3212, 164, 52544, 6251520},
	{"hybrid/1/4", "hybrid", 4, 1, 0x3fb678ca4596185a, 0x8548ed034b4b7ad2, 3212, 164, 2304, 1321056},
	{"hybrid/2/8", "hybrid", 8, 2, 0x3fbaa0d12add0799, 0xff9ebc35e9b8999d, 3212, 164, 7896, 3038112},
	{"hybrid/4/16", "hybrid", 16, 4, 0x3fbefac46cbfb728, 0x59065cdbff08b188, 3212, 164, 26304, 6482784},
	{"copy/2", "copy", 2, 0, 0x3f9ef0e513fc7a4b, 0x591595432fa3d99f, 3212, 164, 328, 565312},
	{"copy/4", "copy", 4, 0, 0x3fa7e983dececb27, 0xecc4114b1d5aa2e0, 3212, 164, 1312, 1695936},
	{"copy/8", "copy", 8, 0, 0x3fb05f293f1872b0, 0x5dda423aae90fc68, 3212, 164, 3936, 3957184},
	{"copy/16", "copy", 16, 0, 0x3fb4aa76d57a6dc3, 0x87f533f340d857c3, 3212, 164, 10496, 8479680},
	// The grid is the one-cluster hybrid: grid/4 repeats hybrid/1/4.
	{"grid/1", "grid", 1, 0, 0x3f8cf986b745c536, 0x647f94bda1228c21, 3212, 164, 0, 0},
	{"grid/4", "grid", 4, 0, 0x3fb678ca4596185a, 0x8548ed034b4b7ad2, 3212, 164, 2304, 1321056},
	{"grid/16", "grid", 16, 0, 0x3fc04bbc1fa6a68a, 0xb346392f7ef1088a, 3212, 164, 16464, 4015968},
}

func goldenConfig(hosts int) Config {
	eps := units.Softening(units.SoftConstant, 128)
	return Config{
		Hosts:   hosts,
		NIC:     simnet.NS83820,
		Machine: perfmodel.SingleNode(simnet.NS83820, perfmodel.Athlon),
		Params:  hermite.DefaultParams(eps),
		Record:  true,
	}
}

func runGolden(t *testing.T, g goldenRun) *Result {
	t.Helper()
	res, err := Run(g.algo, model.Plummer(128, xrand.New(1)), 0.03125, g.clusters, goldenConfig(g.hosts))
	if err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
	return res
}

// breakdownHash folds every rank's per-phase totals into an FNV-64a hash
// of their raw float64 bits (big-endian), matching the capture tooling.
// The goldens were captured with a leading "predict" phase that no host
// ever recorded; its +0 total is hashed in its place, so every recorded
// phase is still compared bit for bit against the same captured values.
func breakdownHash(b *vtrace.Breakdown) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, rank := range b.Ranks {
		for _, v := range append([]float64{0}, rank[:]...) {
			bits := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				buf[i] = byte(bits >> (56 - 8*i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func TestGoldenBreakdownsBitExact(t *testing.T) {
	for _, g := range goldenRuns {
		g := g
		t.Run(g.name, func(t *testing.T) {
			res := runGolden(t, g)
			if bits := math.Float64bits(res.VirtualTime); bits != g.vtBits {
				t.Errorf("virtual time %#x (%.9g), want %#x", bits, res.VirtualTime, g.vtBits)
			}
			if res.Steps != g.steps || res.Blocks != g.blocks {
				t.Errorf("steps/blocks %d/%d, want %d/%d", res.Steps, res.Blocks, g.steps, g.blocks)
			}
			if res.Messages != g.msgs || res.Bytes != g.bytes {
				t.Errorf("msgs/bytes %d/%d, want %d/%d", res.Messages, res.Bytes, g.msgs, g.bytes)
			}
			if len(res.Breakdown.Ranks) != g.hosts {
				t.Fatalf("%d rank breakdowns, want %d", len(res.Breakdown.Ranks), g.hosts)
			}
			if h := breakdownHash(res.Breakdown); h != g.rankHash {
				t.Errorf("breakdown hash %#x, want %#x", h, g.rankHash)
			}
		})
	}
}

// Two identical runs must produce DeepEqual breakdowns AND final particle
// states — the engine has no hidden nondeterminism (map iteration,
// goroutine scheduling) anywhere in the hot path.
func TestBreakdownDeterminism(t *testing.T) {
	for _, g := range []goldenRun{goldenRuns[1], goldenRuns[6]} { // ring/4, hybrid/4/16
		g := g
		t.Run(g.name, func(t *testing.T) {
			a, b := runGolden(t, g), runGolden(t, g)
			if !reflect.DeepEqual(a.Breakdown, b.Breakdown) {
				t.Error("breakdowns differ between identical runs")
			}
			if !reflect.DeepEqual(a.BlockSizes, b.BlockSizes) {
				t.Error("block-size histories differ between identical runs")
			}
			if !sysEqual(a.Sys, b.Sys) {
				t.Error("final particle states differ between identical runs")
			}
		})
	}
}

func sysEqual(a, b *nbody.System) bool {
	if a.N != b.N {
		return false
	}
	for i := 0; i < a.N; i++ {
		if a.Pos[i] != b.Pos[i] || a.Vel[i] != b.Vel[i] || a.Time[i] != b.Time[i] || a.Step[i] != b.Step[i] {
			return false
		}
	}
	return true
}
