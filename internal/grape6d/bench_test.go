package grape6d

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"grape6/internal/chip"
)

// BenchmarkSchedulerDispatch measures the steady-state cost of pushing
// one small force request through the scheduler — request, pick, serve,
// complete — on a resident session with no swap. The CI allocation
// guard pins it at 0 allocs/op: the scheduler evaluates on the caller's
// slabs and owns no per-request state to allocate.
func BenchmarkSchedulerDispatch(b *testing.B) {
	hw := smallHW()
	js, is := plummerSet(b, hw, 512, 42)
	d := NewScheduler(Config{HW: hw})
	defer d.Close()
	s, err := d.Attach("bench", Quota{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Detach()
	if err := s.LoadJ(js); err != nil {
		b.Fatal(err)
	}
	dst := make([]chip.Partial, 4)
	for k := 0; k < 16; k++ { // swap in, grow the array's slabs to steady state
		s.ForcesInto(dst, 0.015625, is[:4], 1.0/64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ForcesInto(dst, 0.015625, is[:4], 1.0/64)
	}
}

// BenchmarkTenancySweep is the multi-tenant throughput sweep: 1, 2, 4
// and 8 sessions sharing a two-array fleet, each driven the way a client
// drives it — one ForcesInto per block, the next when it returns — with
// small blocks of 16 i-particles (fill 16/48 by construction). Reported
// per configuration: aggregate particle-steps/s across all sessions, the
// mean fill ratio, the fleet's idle fraction and j-image swaps per block.
func BenchmarkTenancySweep(b *testing.B) {
	hw := smallHW()
	js, is := plummerSet(b, hw, 512, 42)
	const blockSize = 16
	for _, nsess := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sessions=%d", nsess), func(b *testing.B) {
			d := NewScheduler(Config{Fleet: 2, HW: hw})
			defer d.Close()
			sessions := make([]*Session, nsess)
			for k := range sessions {
				s, err := d.Attach(fmt.Sprintf("t%d", k), Quota{})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Detach()
				if err := s.LoadJ(js); err != nil {
					b.Fatal(err)
				}
				sessions[k] = s
			}
			run := func(blocks int) {
				var wg sync.WaitGroup
				for _, s := range sessions {
					wg.Add(1)
					go func() {
						defer wg.Done()
						dst := make([]chip.Partial, blockSize)
						for k := 0; k < blocks; k++ {
							s.ForcesInto(dst, 0.015625, is[:blockSize], 1.0/64)
						}
					}()
				}
				wg.Wait()
			}
			run(2) // warm slots and slabs
			before := d.Stats()
			busyBefore := fleetBusy(before)
			b.ResetTimer()
			start := time.Now()
			run(b.N)
			elapsed := time.Since(start)
			b.StopTimer()
			after := d.Stats()

			psteps := float64(nsess*b.N*blockSize) / elapsed.Seconds()
			b.ReportMetric(psteps, "psteps/s")
			if dd := after.Fill.Dispatches - before.Fill.Dispatches; dd > 0 {
				sumAfter := after.Fill.MeanFill * float64(after.Fill.Dispatches)
				sumBefore := before.Fill.MeanFill * float64(before.Fill.Dispatches)
				b.ReportMetric((sumAfter-sumBefore)/float64(dd), "fill")
			}
			busy := fleetBusy(after) - busyBefore
			wall := time.Duration(d.Fleet()) * elapsed
			idle := 1 - float64(busy)/float64(wall)
			if idle < 0 {
				idle = 0
			}
			b.ReportMetric(idle, "idle")
			swaps := fleetSwaps(after) - fleetSwaps(before)
			b.ReportMetric(float64(swaps)/float64(nsess*b.N), "swaps/block")
		})
	}
}

func fleetSwaps(st Stats) int64 {
	var swaps int64
	for _, as := range st.Arrays {
		swaps += as.Swaps
	}
	return swaps
}

func fleetBusy(st Stats) time.Duration {
	var busy time.Duration
	for _, as := range st.Arrays {
		busy += as.Busy
	}
	return busy
}
