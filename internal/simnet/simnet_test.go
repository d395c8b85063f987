package simnet

import (
	"math"
	"testing"

	"grape6/internal/des"
)

func TestNICProfilesMatchPaper(t *testing.T) {
	// Section 4.4 numbers.
	if NS83820.RTT != 200e-6 || NS83820.Bandwidth != 60e6 {
		t.Errorf("NS83820 = %+v", NS83820)
	}
	if Intel82540EM.RTT != 67e-6 || Intel82540EM.Bandwidth != 105e6 {
		t.Errorf("Intel82540EM = %+v", Intel82540EM)
	}
	if Tigon2.Bandwidth != 85e6 {
		t.Errorf("Tigon2 = %+v", Tigon2)
	}
	// Myrinet: latency 5-10× shorter than the 200µs TCP/IP baseline.
	ratio := NS83820.RTT / Myrinet.RTT
	if ratio < 5 || ratio > 10 {
		t.Errorf("Myrinet latency improvement = %v, want 5-10x", ratio)
	}
	for _, n := range []NIC{NS83820, Tigon2, Intel82540EM, Myrinet} {
		if err := n.Validate(); err != nil {
			t.Errorf("%s invalid: %v", n.Name, err)
		}
	}
}

func TestValidateRejectsBad(t *testing.T) {
	if err := (NIC{RTT: -1, Bandwidth: 1}).Validate(); err == nil {
		t.Error("accepted negative RTT")
	}
	if err := (NIC{RTT: 1, Bandwidth: 0}).Validate(); err == nil {
		t.Error("accepted zero bandwidth")
	}
}

func TestOneWayTime(t *testing.T) {
	n := NIC{RTT: 100e-6, Bandwidth: 1e8}
	// 10^6 bytes at 100 MB/s = 10 ms, plus 50 µs latency.
	want := 50e-6 + 0.01
	if got := n.OneWay(1_000_000); math.Abs(got-want) > 1e-9 {
		t.Errorf("OneWay = %v, want ≈%v", got, want)
	}
}

func TestPointToPointDelivery(t *testing.T) {
	eng := des.New()
	net := New(eng, NIC{RTT: 100e-6, Bandwidth: 1e8}, 2)
	var recvAt float64 = -1
	var payload interface{}
	eng.Spawn("recv", func(p *des.Proc) {
		payload = net.Recv(p, 1, 7)
		recvAt = p.Now()
	})
	eng.Spawn("send", func(p *des.Proc) {
		net.Send(0, 1, 7, 1000, "hello")
	})
	eng.RunAll()
	// arrival = transfer (1000/1e8 = 10µs) + RTT/2 (50µs) = 60µs.
	if math.Abs(recvAt-60e-6) > 1e-9 {
		t.Errorf("received at %v, want 60µs", recvAt)
	}
	if payload != "hello" {
		t.Errorf("payload = %v", payload)
	}
}

func TestRecvBeforeSend(t *testing.T) {
	eng := des.New()
	net := New(eng, NS83820, 2)
	got := -1.0
	eng.Spawn("recv", func(p *des.Proc) {
		net.Recv(p, 0, 1)
		got = p.Now()
	})
	eng.Spawn("send", func(p *des.Proc) {
		p.Sleep(1e-3)
		net.Send(1, 0, 1, 0, nil)
	})
	eng.RunAll()
	want := 1e-3 + NS83820.RTT/2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("recv completed at %v, want %v", got, want)
	}
}

func TestSenderSerialization(t *testing.T) {
	// Two back-to-back 1 MB sends from the same rank: the second is
	// delayed by the first's serialization time.
	eng := des.New()
	nic := NIC{RTT: 0, Bandwidth: 1e6} // 1 MB/s, zero latency
	net := New(eng, nic, 3)
	var t1, t2 float64
	eng.Spawn("r1", func(p *des.Proc) {
		net.Recv(p, 1, 0)
		t1 = p.Now()
	})
	eng.Spawn("r2", func(p *des.Proc) {
		net.Recv(p, 2, 0)
		t2 = p.Now()
	})
	eng.Spawn("send", func(p *des.Proc) {
		net.Send(0, 1, 0, 1_000_000, nil) // 1 s transfer
		net.Send(0, 2, 0, 1_000_000, nil) // queued behind → arrives at 2 s
	})
	eng.RunAll()
	if math.Abs(t1-1.0) > 1e-9 || math.Abs(t2-2.0) > 1e-9 {
		t.Errorf("arrivals %v %v, want 1s and 2s", t1, t2)
	}
}

func TestDistinctSendersDoNotSerialize(t *testing.T) {
	eng := des.New()
	nic := NIC{RTT: 0, Bandwidth: 1e6}
	net := New(eng, nic, 3)
	var t1, t2 float64
	eng.Spawn("r", func(p *des.Proc) {
		net.Recv(p, 2, 0)
		t1 = p.Now()
		net.Recv(p, 2, 1)
		t2 = p.Now()
	})
	eng.Spawn("s0", func(p *des.Proc) { net.Send(0, 2, 0, 1_000_000, nil) })
	eng.Spawn("s1", func(p *des.Proc) { net.Send(1, 2, 1, 1_000_000, nil) })
	eng.RunAll()
	if math.Abs(t1-1.0) > 1e-9 || math.Abs(t2-1.0) > 1e-9 {
		t.Errorf("parallel senders arrived at %v, %v; want both at 1s", t1, t2)
	}
}

func TestFIFOOrderSameTag(t *testing.T) {
	eng := des.New()
	net := New(eng, NIC{RTT: 10e-6, Bandwidth: 1e9}, 2)
	var got []int
	eng.Spawn("recv", func(p *des.Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, net.Recv(p, 1, 0).(int))
		}
	})
	eng.Spawn("send", func(p *des.Proc) {
		for i := 0; i < 3; i++ {
			net.Send(0, 1, 0, 100, i)
		}
	})
	eng.RunAll()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("order = %v", got)
	}
}

func TestButterflyBarrierSynchronizes(t *testing.T) {
	// 4 ranks arriving at different times: all leave the butterfly at (or
	// after) the last arrival.
	eng := des.New()
	nic := NIC{RTT: 100e-6, Bandwidth: 1e9}
	net := New(eng, nic, 4)
	arrive := []float64{0, 3e-3, 1e-3, 2e-3}
	exit := make([]float64, 4)
	for r := 0; r < 4; r++ {
		r := r
		eng.Spawn("h", func(p *des.Proc) {
			p.Sleep(arrive[r])
			net.Butterfly(p, r, 4, 100, 8, nil, nil)
			exit[r] = p.Now()
		})
	}
	eng.RunAll()
	for r, e := range exit {
		if e < 3e-3 {
			t.Errorf("rank %d left barrier at %v, before last arrival", r, e)
		}
		if e > 3e-3+10*nic.OneWay(8) {
			t.Errorf("rank %d left barrier too late: %v", r, e)
		}
	}
}

func TestButterflyAllReduce(t *testing.T) {
	eng := des.New()
	net := New(eng, Intel82540EM, 8)
	results := make([]int, 8)
	for r := 0; r < 8; r++ {
		r := r
		eng.Spawn("h", func(p *des.Proc) {
			v := net.Butterfly(p, r, 8, 200, 8, r, func(a, b interface{}) interface{} {
				return a.(int) + b.(int)
			})
			results[r] = v.(int)
		})
	}
	eng.RunAll()
	for r, v := range results {
		if v != 28 { // 0+1+...+7
			t.Errorf("rank %d allreduce = %d, want 28", r, v)
		}
	}
}

func TestButterflyLatencyScalesWithLog(t *testing.T) {
	// Barrier time ∝ log2(p) × one-way latency: 16 ranks ≈ 4 rounds.
	measure := func(size int) float64 {
		eng := des.New()
		net := New(eng, NIC{RTT: 100e-6, Bandwidth: 1e12}, size)
		var exit float64
		for r := 0; r < size; r++ {
			r := r
			eng.Spawn("h", func(p *des.Proc) {
				net.Butterfly(p, r, size, 0, 8, nil, nil)
				if p.Now() > exit {
					exit = p.Now()
				}
			})
		}
		eng.RunAll()
		return exit
	}
	t4 := measure(4)
	t16 := measure(16)
	if r := t16 / t4; math.Abs(r-2.0) > 0.2 {
		t.Errorf("barrier(16)/barrier(4) = %v, want ≈2 (4 vs 2 rounds)", r)
	}
}

func TestTrafficCounters(t *testing.T) {
	eng := des.New()
	net := New(eng, NS83820, 2)
	eng.Spawn("r", func(p *des.Proc) { net.Recv(p, 1, 0) })
	eng.Spawn("s", func(p *des.Proc) { net.Send(0, 1, 0, 12345, nil) })
	eng.RunAll()
	if net.MessagesSent != 1 || net.BytesSent != 12345 {
		t.Errorf("counters = %d msgs, %d bytes", net.MessagesSent, net.BytesSent)
	}
}

func TestPanicsOnBadRank(t *testing.T) {
	eng := des.New()
	net := New(eng, NS83820, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range rank did not panic")
		}
	}()
	net.Send(0, 5, 0, 0, nil)
}

func TestButterflyNonPow2Panics(t *testing.T) {
	eng := des.New()
	net := New(eng, NS83820, 3)
	caught := false
	eng.Spawn("h", func(p *des.Proc) {
		defer func() {
			if recover() != nil {
				caught = true
			}
		}()
		net.Butterfly(p, 0, 3, 0, 8, nil, nil)
	})
	eng.RunAll()
	if !caught {
		t.Error("non-power-of-two butterfly did not panic")
	}
}

func TestDeterministicTraffic(t *testing.T) {
	run := func() []float64 {
		eng := des.New()
		net := New(eng, Intel82540EM, 4)
		var times []float64
		for r := 0; r < 4; r++ {
			r := r
			eng.Spawn("h", func(p *des.Proc) {
				for k := 0; k < 5; k++ {
					net.Butterfly(p, r, 4, k*100, 64, nil, nil)
					times = append(times, p.Now())
				}
			})
		}
		eng.RunAll()
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic network at %d", i)
		}
	}
}

func TestKernelBypassProfile(t *testing.T) {
	// The software option sits between raw TCP/IP and a NIC swap: same
	// wire, lower software latency.
	if err := KernelBypass.Validate(); err != nil {
		t.Fatal(err)
	}
	if !(KernelBypass.RTT < NS83820.RTT) {
		t.Error("kernel bypass should cut the NS83820 latency")
	}
	if !(KernelBypass.RTT > Intel82540EM.RTT) {
		t.Error("kernel bypass on old hardware should not beat the tuned NIC")
	}
}

// Regression: a dequeue must zero the vacated ring slot — otherwise a
// duplicate of the popped payload reference stays live in the mailbox's
// backing array, pinning delivered payloads for the life of the run.
func TestRecvZeroesVacatedSlot(t *testing.T) {
	eng := des.New()
	net := New(eng, NIC{RTT: 10e-6, Bandwidth: 1e9}, 2)
	eng.Spawn("recv", func(p *des.Proc) {
		p.Sleep(1e-3) // let both messages land in the mailbox first
		bi := net.findBox(1, 0)
		if bi < 0 || net.boxes[bi].n != 2 {
			t.Errorf("mailbox missing or wrong depth before recv (bi=%d)", bi)
			return
		}
		ring := net.boxes[bi].ring // backing array before the pop
		slot := net.boxes[bi].head // slot the pop will vacate
		net.Recv(p, 1, 0)
		if ring[slot] != nil {
			t.Errorf("vacated slot still holds %v, want nil", ring[slot])
		}
	})
	eng.Spawn("send", func(p *des.Proc) {
		net.Send(0, 1, 0, 100, "first")
		net.Send(0, 1, 0, 100, "second")
	})
	eng.RunAll()
}

// Delivery unpins payloads from the in-flight slab, and drained mailboxes
// are recycled: a long run with round-strided tags (the parallel drivers'
// scheme) must not grow the network's state per round.
func TestSlabReuseBoundedGrowth(t *testing.T) {
	eng := des.New()
	net := New(eng, NIC{RTT: 10e-6, Bandwidth: 1e9}, 2)
	const rounds = 500
	eng.Spawn("rank0", func(p *des.Proc) {
		for r := 0; r < rounds; r++ {
			tag := r * 4096 // fresh tag every round, like the drivers
			net.Send(0, 1, tag, 64, nil)
			net.Recv(p, 0, tag+1)
		}
	})
	eng.Spawn("rank1", func(p *des.Proc) {
		for r := 0; r < rounds; r++ {
			tag := r * 4096
			net.Recv(p, 1, tag)
			net.Send(1, 0, tag+1, 64, nil)
		}
	})
	eng.RunAll()
	if eng.Live() != 0 {
		t.Fatalf("%d processes deadlocked", eng.Live())
	}
	if len(net.boxes) > 8 {
		t.Errorf("mailbox slab grew to %d slots over %d rounds, want bounded reuse", len(net.boxes), rounds)
	}
	if len(net.pend) > 8 {
		t.Errorf("in-flight slab grew to %d slots over %d rounds, want bounded reuse", len(net.pend), rounds)
	}
	for i := range net.pend {
		if net.pend[i].payload != nil {
			t.Errorf("recycled in-flight slot %d still pins %v", i, net.pend[i].payload)
		}
	}
}

type obsLog struct {
	blocks []struct {
		to, tag     int
		from, until float64
	}
}

func (o *obsLog) RecvBlocked(to, tag int, from, until float64) {
	o.blocks = append(o.blocks, struct {
		to, tag     int
		from, until float64
	}{to, tag, from, until})
}

func TestObserverRecvBlockedInterval(t *testing.T) {
	eng := des.New()
	net := New(eng, NS83820, 2)
	obs := &obsLog{}
	net.Observe(obs)
	eng.Spawn("recv", func(p *des.Proc) {
		p.Sleep(1e-4)
		net.Recv(p, 0, 1) // blocks from 1e-4 until delivery
		net.Recv(p, 0, 2) // already in the mailbox: no block event
	})
	eng.Spawn("send", func(p *des.Proc) {
		p.Sleep(1e-3)
		net.Send(1, 0, 1, 0, nil)
		net.Send(1, 0, 2, 0, nil)
	})
	eng.RunAll()
	if len(obs.blocks) != 1 {
		t.Fatalf("%d block events, want 1 (second recv was immediate)", len(obs.blocks))
	}
	b := obs.blocks[0]
	want := 1e-3 + NS83820.RTT/2
	if b.to != 0 || b.tag != 1 || math.Abs(b.from-1e-4) > 1e-12 || math.Abs(b.until-want) > 1e-12 {
		t.Errorf("block event = %+v, want to=0 tag=1 [1e-4, %v]", b, want)
	}
}
