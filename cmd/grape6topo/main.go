// Command grape6topo inspects the machine topology: the cluster wiring of
// Figures 1-3 (hosts, network boards, processor boards, LVDS links), the
// legal partitions of a cluster into sub-units, and the peak-speed
// inventory of any configuration.
//
//	grape6topo                     # the production 4-cluster machine
//	grape6topo -partition perhost  # each host with its own boards
//	grape6topo -partition half     # two 2-host sub-units
package main

import (
	"flag"
	"fmt"
	"os"

	"grape6/internal/netboard"
	"grape6/internal/perfmodel"
	"grape6/internal/simnet"
)

func main() {
	var (
		part = flag.String("partition", "whole", "cluster partition: whole, perhost, half")
	)
	flag.Parse()

	full := perfmodel.MultiCluster(4, simnet.Intel82540EM, perfmodel.P4)
	fmt.Println("GRAPE-6 production machine")
	hw := full.Attach
	fmt.Printf("  %d clusters x %d hosts x %d boards x %d chips = %d chips\n",
		full.Clusters, full.HostsPerCl, hw.Boards, hw.ChipsPerBoard(), full.TotalChips())
	fmt.Printf("  peak %.2f Tflops (57 flops/interaction at %.0f MHz, %d pipes x %d-way VMP)\n",
		full.PeakFlops()/1e12, hw.Chip.ClockHz/1e6, hw.Chip.Pipelines, hw.Chip.VMP)
	fmt.Printf("  per-host i-parallelism: %d particles per pipeline pass\n\n", hw.Chip.IBatch())

	c := netboard.Production
	var p netboard.Partition
	switch *part {
	case "whole":
		p = c.WholeCluster()
	case "perhost":
		p = c.PerHost()
	case "half":
		p = netboard.Partition{Units: []netboard.Unit{
			{Hosts: []int{0, 1}, Boards: ints(0, 7)},
			{Hosts: []int{2, 3}, Boards: ints(8, 15)},
		}}
	default:
		fmt.Fprintf(os.Stderr, "grape6topo: unknown partition %q\n", *part)
		os.Exit(2)
	}
	if err := c.ValidatePartition(p); err != nil {
		fmt.Fprintf(os.Stderr, "grape6topo: invalid partition: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(c.Describe(p))

	fmt.Println("\nLVDS link timing (Section 3.3 serial channels):")
	for _, bytes := range []int{72, 1024, 65536} {
		bt, err := c.BroadcastTime(0, p.Units[0], bytes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "grape6topo: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  broadcast %6d B to unit 0: %8.2f µs\n", bytes, bt*1e6)
	}
}

func ints(lo, hi int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}
