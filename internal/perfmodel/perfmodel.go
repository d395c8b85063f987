// Package perfmodel implements the performance models of Section 4 of the
// paper: the decomposition of the time per particle step into host,
// communication, GRAPE and synchronization components (eq. 10 and its
// multi-node extensions), the cache-aware host-time model of Figure 14,
// and the machine configurations (1 host … 4 clusters × 4 hosts) whose
// curves Figures 13-19 plot.
//
// The model is analytic: given a machine configuration, the particle count
// N and a block-step workload (mean block size, steps per second), it
// predicts the wall-clock cost per block and the sustained speed under the
// paper's 57-flops accounting. The trace-driven simulator in
// internal/timing evaluates the same model block by block.
//
// Each host's GRAPE attachment is the board.Config the emulator runs
// (Machine.Attach), so the GRAPE term is the chip's own cycle count,
// chip.Config.BatchCycles, and the peak is board.Config.PeakFlops per
// host: the model and the emulator cannot disagree on the silicon. The
// model leaves out only the emulator's reduction-tree latency (a few
// cycles per batch).
package perfmodel

import (
	"fmt"
	"math"

	"grape6/internal/board"
	"grape6/internal/chip"
	"grape6/internal/simnet"
	"grape6/internal/units"
)

// HostProfile models the frontend's per-particle integration cost with the
// cache effect of Figure 14: the cost per step is StepTime plus MemTime
// weighted by the cache-miss fraction of the particle working set.
type HostProfile struct {
	Name             string
	StepTime         float64 // seconds per particle step, cache-hot
	MemTime          float64 // additional seconds per step at 100% miss
	CacheBytes       float64 // effective cache size
	BytesPerParticle float64 // working-set bytes per particle
}

// The two host generations of the tuning study (Section 4.4).
var (
	// Athlon is the original frontend: AMD Athlon XP 1800+ (Section 2.2).
	// The asymptotic ~5 µs/step is calibrated against Figure 13's
	// single-node speed at N = 2×10^5 (~1.3 Tflops of a 3.94 peak implies
	// ~6 µs of non-GRAPE time per step).
	Athlon = HostProfile{
		Name:             "AthlonXP1800",
		StepTime:         1.6e-6,
		MemTime:          3.6e-6,
		CacheBytes:       256e3,
		BytesPerParticle: 200,
	}
	// P4 is the tuned frontend: Intel P4 2.53 GHz overclocked to 2.85 GHz.
	P4 = HostProfile{
		Name:             "P4-2.85",
		StepTime:         1.0e-6,
		MemTime:          2.2e-6,
		CacheBytes:       512e3,
		BytesPerParticle: 200,
	}
)

// MissFraction returns the cache-miss fraction for an N-particle working
// set: 0 when it fits in cache, approaching 1 when it far exceeds it.
func (h HostProfile) MissFraction(n int) float64 {
	ws := float64(n) * h.BytesPerParticle
	if ws <= 0 {
		return 0
	}
	excess := ws - h.CacheBytes
	if excess <= 0 {
		return 0
	}
	return excess / (excess + h.CacheBytes)
}

// PerStep returns the host time per particle step at particle count N —
// the Figure 14 dotted-curve model. With CacheBytes = 0 every step
// misses and PerStep is the constant StepTime + MemTime, the dashed
// curve and the large-N asymptote.
func (h HostProfile) PerStep(n int) float64 {
	return h.StepTime + h.MemTime*h.MissFraction(n)
}

// Link models the host↔GRAPE interface (PCI on the production hosts).
type Link struct {
	DMASetup    float64 // fixed cost to start a DMA transaction, seconds
	Bandwidth   float64 // bytes per second
	IBytes      int     // bytes sent per i-particle (position, velocity, ...)
	ResultBytes int     // bytes returned per force result
	JBytes      int     // bytes per j-particle memory update
}

// PCI is the production 32-bit/33 MHz PCI interface.
var PCI = Link{
	DMASetup:    25e-6,
	Bandwidth:   133e6,
	IBytes:      72,
	ResultBytes: 56,
	JBytes:      72,
}

// Grape4Machine is the whole predecessor system: one mid-90s host on a
// shared I/O bus driving 9 j-partitions (Section 3.2: "4 clusters are
// connected to a single host, sharing one I/O bus"). The 1-Tflops
// GRAPE-4 is abstracted into the GRAPE-6 cost model as 9 one-chip
// "boards" sharing the j-particles, with a machine-wide i-parallelism of
// 384 — the "400" the paper quotes — at a 32 MHz clock streaming one
// j-particle per 6 cycles: 64 pipelines (4 clusters × 16 chip-groups
// sharing each j-stream) × VMP 6. Peak: 9 × 57 × 64 × 32 MHz ≈ 1.05
// Tflops, the paper's "1-Tflops GRAPE-4".
func Grape4Machine() Machine {
	c := chip.Default
	c.ClockHz, c.Pipelines, c.VMP, c.PipelineDepth = 32e6, 64, 6, 50
	return Machine{
		Name:       "GRAPE-4 (1 host, full machine)",
		Clusters:   1,
		HostsPerCl: 1,
		Attach:     board.Config{Chip: c, ChipsPerModule: 1, ModulesPerBoard: 1, Boards: 9},
		Link:       Link{DMASetup: 40e-6, Bandwidth: 30e6, IBytes: 107 / 8 * 8, ResultBytes: 56, JBytes: 72},
		NIC:        simnet.NIC{Name: "single-host", RTT: 1e-6, Bandwidth: 1e9},
		Host: HostProfile{
			Name: "mid-90s RISC host", StepTime: 4e-6, MemTime: 8e-6,
			CacheBytes: 1e6, BytesPerParticle: 200,
		},
	}
}

// Machine is a full system configuration: clusters of hosts, each host
// with the same GRAPE attachment — the board.Config the emulator runs —
// host link, host network and frontend profile.
type Machine struct {
	Name       string
	Clusters   int
	HostsPerCl int
	Attach     board.Config
	Link       Link
	NIC        simnet.NIC
	Host       HostProfile
}

// Validate reports configuration errors.
func (m Machine) Validate() error {
	if m.Clusters <= 0 || m.HostsPerCl <= 0 {
		return fmt.Errorf("perfmodel: non-positive machine shape %d/%d", m.Clusters, m.HostsPerCl)
	}
	if err := m.Attach.Validate(); err != nil {
		return err
	}
	if m.Link.Bandwidth <= 0 {
		return fmt.Errorf("perfmodel: invalid link %+v", m.Link)
	}
	return m.NIC.Validate()
}

// Hosts returns the total number of host computers.
func (m Machine) Hosts() int { return m.Clusters * m.HostsPerCl }

// TotalChips returns the number of pipeline chips in the machine.
func (m Machine) TotalChips() int { return m.Hosts() * m.Attach.TotalChips() }

// PeakFlops returns the machine's peak under the 57-flops convention.
func (m Machine) PeakFlops() float64 { return float64(m.Hosts()) * m.Attach.PeakFlops() }

// Standard configurations of the paper's benchmark section. The 1-, 2- and
// 4-host systems are single-cluster (Figure 15); 8 and 16 hosts span 2 and
// 4 clusters (Figure 17). Every host carries board.Default, the
// production 4-board attachment.
func SingleNode(nic simnet.NIC, host HostProfile) Machine {
	return Machine{Name: "1-host 4-board", Clusters: 1, HostsPerCl: 1,
		Attach: board.Default, Link: PCI, NIC: nic, Host: host}
}

func MultiNode(hosts int, nic simnet.NIC, host HostProfile) Machine {
	return Machine{Name: fmt.Sprintf("%d-host single-cluster", hosts),
		Clusters: 1, HostsPerCl: hosts,
		Attach: board.Default, Link: PCI, NIC: nic, Host: host}
}

func MultiCluster(clusters int, nic simnet.NIC, host HostProfile) Machine {
	return Machine{Name: fmt.Sprintf("%d-cluster (%d hosts)", clusters, clusters*4),
		Clusters: clusters, HostsPerCl: 4,
		Attach: board.Default, Link: PCI, NIC: nic, Host: host}
}

// ShardedFleet builds the full-machine emulation topology (Figure 19): a
// fleet of boards × chipsPerBoard production pipeline chips shared evenly
// over ranks simulated hosts in the given number of clusters. The paper's
// flagship configuration is 64 boards × 32 chips = 2048 chips in 4 host
// clusters; emulating it with more hosts than the real machine keeps the
// per-rank chip count integral while preserving the total silicon, so
// the cost model sees the same aggregate pipeline throughput.
//
// The shard is expressed as one board of totalChips/ranks chips per host
// (the cost model only consumes the chips per host, Attach.TotalChips(),
// so the board/module split within a host is immaterial).
func ShardedFleet(clusters, ranks, boards, chipsPerBoard int, nic simnet.NIC, host HostProfile) (Machine, error) {
	if clusters <= 0 || ranks <= 0 || ranks%clusters != 0 {
		return Machine{}, fmt.Errorf("perfmodel: %d ranks not divisible into %d clusters", ranks, clusters)
	}
	totalChips := boards * chipsPerBoard
	if totalChips <= 0 || totalChips%ranks != 0 {
		return Machine{}, fmt.Errorf("perfmodel: %d×%d chip fleet not divisible over %d ranks",
			boards, chipsPerBoard, ranks)
	}
	attach := board.Default
	attach.ChipsPerModule, attach.ModulesPerBoard, attach.Boards = totalChips/ranks, 1, 1
	return Machine{
		Name: fmt.Sprintf("full-machine %d×%d chips over %d clusters × %d hosts",
			boards, chipsPerBoard, clusters, ranks/clusters),
		Clusters:   clusters,
		HostsPerCl: ranks / clusters,
		Attach:     attach,
		Link:       PCI,
		NIC:        nic,
		Host:       host,
	}, nil
}

// BlockCost is the wall-clock decomposition of one block step, the
// multi-node generalization of eq. (10).
type BlockCost struct {
	Host  float64 // frontend integration work for its share of the block
	Comm  float64 // host↔GRAPE DMA and transfer
	Grape float64 // pipeline force-calculation time
	Sync  float64 // host-host synchronization and (multi-cluster) exchange
}

// Total returns the block's wall-clock time.
func (b BlockCost) Total() float64 { return b.Host + b.Comm + b.Grape + b.Sync }

// BlockTime predicts the cost of one block step with nb particles in a
// system of N particles.
//
// Work distribution (Sections 3.2, 4.2, 4.3): within a cluster the 2D
// board network lets each host integrate nb/hosts particles while its
// boards hold N/hosts j-particles each (single-cluster systems, h = total
// hosts) — for multi-cluster systems each cluster holds a full copy and
// integrates nb/clusters, so each host integrates nb/(hosts) and its
// boards hold N/HostsPerCl j-particles. After the block, single-cluster
// systems synchronize with a butterfly barrier; multi-cluster systems also
// exchange the updated particles between clusters over the host network,
// with the cluster's HostsPerCl hosts sharing the transfer (Section 2:
// "the bandwidth is increased by a factor of four").
func (m Machine) BlockTime(n, nb int) BlockCost {
	if nb <= 0 || n <= 0 {
		return BlockCost{}
	}
	hosts := m.Hosts()
	nbLocal := ceilDiv(nb, hosts)

	// In the 2D board grid the boards of one host's row hold the column
	// subsets — collectively the full system — so each host's chips share
	// all N particles. (The replication across rows/clusters is what buys
	// the parallelism; Section 3.2.)
	c := BlockCost{
		Host:  m.HostWork(nbLocal, n),
		Comm:  m.LinkTime(nbLocal),
		Grape: m.GrapeTimeHost(nbLocal, n),
	}

	// Synchronization: two butterfly barriers per block step — one to
	// agree on the next block time, one to complete the update exchange
	// before the next force evaluation (the co-simulation in
	// internal/parallel performs exactly these two rounds).
	if hosts > 1 {
		c.Sync = 2 * m.barrierTime(hosts, 8)
	}
	if m.Clusters > 1 {
		// Copy-algorithm exchange: every cluster must receive the
		// particles updated on the other clusters; each cluster's hosts
		// share the outgoing transfer.
		perCluster := ceilDiv(nb, m.Clusters)
		outBytes := float64(perCluster*m.Link.JBytes) * float64(m.Clusters-1)
		c.Sync += outBytes/(m.NIC.Bandwidth*float64(m.HostsPerCl)) + m.NIC.RTT/2
	}
	return c
}

// barrierTime is the butterfly barrier cost among h hosts.
func (m Machine) barrierTime(h, bytes int) float64 {
	rounds := 0
	for bit := 1; bit < h; bit <<= 1 {
		rounds++
	}
	return float64(rounds) * m.NIC.OneWay(bytes)
}

// TimePerStep returns the predicted wall-clock time per individual
// particle step for blocks of mean size nbMean — the quantity plotted in
// Figures 14, 16 and 18.
func (m Machine) TimePerStep(n int, nbMean float64) float64 {
	if nbMean < 1 {
		nbMean = 1
	}
	c := m.BlockTime(n, int(math.Round(nbMean)))
	return c.Total() / nbMean
}

// Speed returns the predicted sustained calculation speed (flops/s) under
// eq. (9): S = 57·N·n_steps with n_steps = 1/TimePerStep.
func (m Machine) Speed(n int, nbMean float64) float64 {
	t := m.TimePerStep(n, nbMean)
	if t <= 0 {
		return 0
	}
	return units.Speed(n, 1/t)
}

// Efficiency returns Speed/PeakFlops.
func (m Machine) Efficiency(n int, nbMean float64) float64 {
	return m.Speed(n, nbMean) / m.PeakFlops()
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// The granular per-host cost pieces below are used by the message-level
// co-simulation (internal/parallel), which charges each simulated host for
// its own compute while the network costs emerge from simnet traffic.

// GrapeTimeHost returns the force-pipeline time for ni i-particles against
// njStored j-particles spread over ONE host's attached chips: the chip's
// own cycle count for its ⌈njStored/chips⌉ j-slots. The emulator charges
// the same cycles plus the reduction-tree latency, which the model omits.
func (m Machine) GrapeTimeHost(ni, njStored int) float64 {
	if ni <= 0 || njStored <= 0 {
		return 0
	}
	jPerChip := ceilDiv(njStored, m.Attach.TotalChips())
	return float64(m.Attach.Chip.BatchCycles(ni, jPerChip)) / m.Attach.Chip.ClockHz
}

// HostWork returns the frontend time to integrate nSteps particle steps at
// system size N (cache model included).
func (m Machine) HostWork(nSteps, n int) float64 {
	if nSteps <= 0 {
		return 0
	}
	return float64(nSteps) * m.Host.PerStep(n)
}

// LinkTime returns the host↔GRAPE transfer cost for a block of ni
// i-particles (one DMA setup plus per-particle traffic).
func (m Machine) LinkTime(ni int) float64 {
	if ni <= 0 {
		return 0
	}
	bytes := ni * (m.Link.IBytes + m.Link.ResultBytes + m.Link.JBytes)
	return m.Link.DMASetup + float64(bytes)/m.Link.Bandwidth
}
