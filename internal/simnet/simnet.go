// Package simnet simulates the host-to-host network of the GRAPE-6
// installation: Gigabit Ethernet with the NIC/driver combinations the
// paper's tuning study measured (Section 4.4). Messages travel in the
// virtual time of a des.Engine with a latency/bandwidth cost model, and
// each sender's NIC serializes its outgoing transfers — the two effects
// that shape Figures 15-19.
package simnet

import (
	"fmt"

	"grape6/internal/des"
)

// NIC is a network-interface profile: half-RTT latency plus streaming
// bandwidth. The three measured profiles come from Section 4.4 of the
// paper; Myrinet is the "obvious solution" the authors could not afford,
// with the 5-10× lower latency they quote.
type NIC struct {
	Name      string
	RTT       float64 // round-trip latency in seconds
	Bandwidth float64 // payload bandwidth in bytes per second
}

// The paper's measured NIC profiles.
var (
	// NS83820 is the original setup: Planex GN-1000TC on an Athlon host.
	// "round-trip latency was around 200µs, and the peak bandwidth was
	// 60 MB/s."
	NS83820 = NIC{Name: "NS83820+Athlon", RTT: 200e-6, Bandwidth: 60e6}

	// Tigon2 is the Netgear GA621T: "somewhat better throughput (85MB/s),
	// but not much improvement in the latency."
	Tigon2 = NIC{Name: "Tigon2", RTT: 180e-6, Bandwidth: 85e6}

	// Intel82540EM is the tuned setup on an overclocked P4: "round-trip
	// latency was cut down to 67µs, and the throughput is increased to
	// 105MB/s."
	Intel82540EM = NIC{Name: "Intel82540EM+P4", RTT: 67e-6, Bandwidth: 105e6}

	// Myrinet is the hypothetical upgrade: "Myrinet would provide the
	// latency 5-10 times shorter than usual TCP/IP over Ethernet."
	Myrinet = NIC{Name: "Myrinet-class", RTT: 25e-6, Bandwidth: 240e6}

	// KernelBypass models the paper's software alternative ("communication
	// software which bypasses the TCP/IP protocol layer, such as GAMMA or
	// VIA"): the NS83820 wire with roughly half the round-trip spent in
	// the kernel stack removed.
	KernelBypass = NIC{Name: "NS83820+GAMMA/VIA", RTT: 90e-6, Bandwidth: 70e6}
)

// Validate reports profile errors.
func (n NIC) Validate() error {
	if n.RTT < 0 || n.Bandwidth <= 0 {
		return fmt.Errorf("simnet: invalid NIC profile %+v", n)
	}
	return nil
}

// TransferTime returns the serialization time of a payload.
func (n NIC) TransferTime(bytes int) float64 {
	return float64(bytes) / n.Bandwidth
}

// OneWay returns the end-to-end time of a single message: half the RTT
// plus the serialization time.
func (n NIC) OneWay(bytes int) float64 {
	return n.RTT/2 + n.TransferTime(bytes)
}

// Observer is told how long each receive blocked; internal/vtrace
// implements it structurally. RecvBlocked fires when a Recv that found an
// empty mailbox returns: the receiving process was blocked from `from`
// until `until`, in virtual time.
type Observer interface {
	RecvBlocked(to, tag int, from, until float64)
}

// box is one live (rank, tag) mailbox: a circular buffer of queued
// payloads plus at most one parked receiver. Boxes live in a slab and are
// recycled through a freelist the moment they are drained, so a long run
// with round-strided tags touches only a handful of slots — where the old
// map-of-slices design grew one entry per (rank, tag) ever used and
// linear-scanned growing queues.
type box struct {
	tag  int
	ring []interface{} // circular buffer of payloads; cap kept across reuse
	head int
	n    int
	w    *des.Waiter
}

// push appends a payload in FIFO order, growing the ring if full.
func (b *box) push(m interface{}) {
	if b.n == len(b.ring) {
		grown := make([]interface{}, max(4, 2*len(b.ring)))
		for i := 0; i < b.n; i++ {
			grown[i] = b.ring[(b.head+i)%len(b.ring)]
		}
		b.ring = grown
		b.head = 0
	}
	b.ring[(b.head+b.n)%len(b.ring)] = m
	b.n++
}

// pop removes the oldest payload, zeroing the vacated slot so the ring
// does not pin delivered payloads.
func (b *box) pop() interface{} {
	m := b.ring[b.head]
	b.ring[b.head] = nil
	b.head = (b.head + 1) % len(b.ring)
	b.n--
	return m
}

// pending is an in-flight message awaiting its delivery event. The slab
// index travels as the event argument, so a Send schedules delivery
// without allocating a closure.
type pending struct {
	payload interface{}
	to      int
	tag     int
}

// rankWaiter caches the reusable parking spot of the process that
// receives for a rank, so the steady-state Recv path allocates nothing.
type rankWaiter struct {
	p *des.Proc
	w *des.Waiter
}

// Network connects n ranks with a shared NIC profile.
type Network struct {
	eng *des.Engine
	nic NIC
	n   int
	obs Observer

	deliverH des.HandlerID

	// Mailbox slab: active[rank] lists the slab indices of that rank's
	// live boxes (a short list — bounded by the tags simultaneously in
	// flight, not by the tags ever used), and boxFree recycles slots.
	boxes   []box
	active  [][]int32
	boxFree []int32

	// In-flight message slab.
	pend     []pending
	pendFree []int32

	waiters []rankWaiter

	// busyUntil serializes each rank's outgoing transfers.
	busyUntil []float64

	// Traffic counters.
	MessagesSent int64
	BytesSent    int64
}

// Observe attaches an accounting observer (nil detaches). With no
// observer the hook costs one nil check per blocked receive.
func (net *Network) Observe(o Observer) { net.obs = o }

// New builds a network of n ranks on the given engine.
func New(eng *des.Engine, nic NIC, n int) *Network {
	if err := nic.Validate(); err != nil {
		panic(err)
	}
	if n <= 0 {
		panic(fmt.Sprintf("simnet: non-positive rank count %d", n))
	}
	net := &Network{
		eng:       eng,
		nic:       nic,
		n:         n,
		active:    make([][]int32, n),
		waiters:   make([]rankWaiter, n),
		busyUntil: make([]float64, n),
	}
	net.deliverH = eng.RegisterHandler(net.deliver)
	return net
}

func (net *Network) checkRank(r int) {
	if r < 0 || r >= net.n {
		//grapelint:ignore noalloc cold panic path: an out-of-range rank is a driver bug and the cosimulation dies here
		panic(fmt.Sprintf("simnet: rank %d out of range [0,%d)", r, net.n))
	}
}

// findBox returns the slab index of rank `to`'s live box for tag, or -1.
// The scan is over the rank's active list, whose length is the number of
// tags concurrently in flight for that rank (typically ≤ 2 in the
// parallel drivers), giving O(1) waiter lookup in practice.
//
//grape:noalloc
func (net *Network) findBox(to, tag int) int32 {
	for _, bi := range net.active[to] {
		if net.boxes[bi].tag == tag {
			return bi
		}
	}
	return -1
}

// newBox takes a slab slot for (to, tag) and links it into the rank's
// active list. The slot's ring capacity survives recycling.
//
//grape:noalloc
func (net *Network) newBox(to, tag int) int32 {
	var bi int32
	if k := len(net.boxFree) - 1; k >= 0 {
		bi = net.boxFree[k]
		net.boxFree = net.boxFree[:k]
	} else {
		bi = int32(len(net.boxes))
		net.boxes = append(net.boxes, box{})
	}
	b := &net.boxes[bi]
	b.tag = tag
	b.head = 0
	b.n = 0
	b.w = nil
	net.active[to] = append(net.active[to], bi)
	return bi
}

// releaseBox unlinks a drained, waiter-free box and recycles its slot.
//
//grape:noalloc
func (net *Network) releaseBox(to int, bi int32) {
	list := net.active[to]
	for i, v := range list {
		if v == bi {
			list[i] = list[len(list)-1]
			net.active[to] = list[:len(list)-1]
			break
		}
	}
	net.boxFree = append(net.boxFree, bi)
}

// deliver is the engine handler that lands an in-flight message in its
// destination mailbox; arg is the pending-slab index.
func (net *Network) deliver(arg uint64) {
	pm := &net.pend[arg]
	payload, to, tag := pm.payload, pm.to, pm.tag
	pm.payload = nil // unpin the payload from the slab
	net.pendFree = append(net.pendFree, int32(arg))
	bi := net.findBox(to, tag)
	if bi < 0 {
		bi = net.newBox(to, tag)
	}
	b := &net.boxes[bi]
	b.push(payload)
	if b.w != nil {
		w := b.w
		b.w = nil
		w.Wake(net.eng.Now())
	}
}

// Send transmits a message from rank `from` to rank `to`. It does not
// block the calling process (DMA semantics), but the sender's NIC is
// occupied for the serialization time, so back-to-back sends queue up.
// Delivery happens at send-start + serialization + latency.
//
// Ownership: the payload is delivered by reference at a LATER virtual
// time. The sender must not mutate a payload (or a slice's backing array)
// after Send — ship a copy if the local value keeps evolving.
//
//grape:noalloc
func (net *Network) Send(from, to, tag, bytes int, payload interface{}) {
	net.checkRank(from)
	net.checkRank(to)
	if bytes < 0 {
		panic("simnet: negative message size")
	}
	start := net.eng.Now()
	if net.busyUntil[from] > start {
		start = net.busyUntil[from]
	}
	done := start + net.nic.TransferTime(bytes)
	net.busyUntil[from] = done
	arrive := done + net.nic.RTT/2

	net.MessagesSent++
	net.BytesSent += int64(bytes)

	var si int32
	if k := len(net.pendFree) - 1; k >= 0 {
		si = net.pendFree[k]
		net.pendFree = net.pendFree[:k]
	} else {
		si = int32(len(net.pend))
		net.pend = append(net.pend, pending{})
	}
	net.pend[si] = pending{payload: payload, to: to, tag: tag}
	net.eng.AtHandler(arrive, net.deliverH, uint64(si))
}

// Recv blocks the process until a message with the given tag arrives for
// rank `to`, and returns its payload. Messages with equal tags are delivered in
// arrival order. At most one process may wait on a (rank, tag) pair at a
// time.
func (net *Network) Recv(p *des.Proc, to, tag int) interface{} {
	net.checkRank(to)
	bi := net.findBox(to, tag)
	if bi < 0 || net.boxes[bi].n == 0 {
		blockedFrom := net.eng.Now()
		// Re-resolve the box each round: while this process is parked the
		// slab can grow (invalidating pointers, not indices) and in
		// principle another receiver could drain and recycle the slot.
		for bi = net.findBox(to, tag); bi < 0 || net.boxes[bi].n == 0; bi = net.findBox(to, tag) {
			if bi < 0 {
				bi = net.newBox(to, tag)
			}
			b := &net.boxes[bi]
			if b.w != nil {
				panic(fmt.Sprintf("simnet: second receiver on rank %d tag %d", to, tag))
			}
			rw := &net.waiters[to]
			if rw.p != p {
				rw.p = p
				rw.w = p.NewWaiter()
			}
			b.w = rw.w
			rw.w.Park()
		}
		if net.obs != nil {
			net.obs.RecvBlocked(to, tag, blockedFrom, net.eng.Now())
		}
	}
	b := &net.boxes[bi]
	payload := b.pop()
	if b.n == 0 && b.w == nil {
		net.releaseBox(to, bi)
	}
	return payload
}

// Butterfly performs a power-of-two butterfly barrier/allreduce pattern
// among size ranks: ceil(log2 size) rounds of pairwise exchanges, the
// synchronization structure the paper's code uses ("synchronization is
// done through butterfly message exchange using TCP/IP"). The merge
// callback, if non-nil, folds the peer's payload into the local value
// after each round; the final local value is returned.
//
// size must be a power of two (the machine's host counts are 1, 2, 4, 8,
// 16); rank must be < size.
func (net *Network) Butterfly(p *des.Proc, rank, size, tagBase, bytes int,
	local interface{}, merge func(local, remote interface{}) interface{}) interface{} {
	if size&(size-1) != 0 || size <= 0 {
		panic(fmt.Sprintf("simnet: butterfly size %d not a power of two", size))
	}
	if rank < 0 || rank >= size {
		panic(fmt.Sprintf("simnet: butterfly rank %d out of range", rank))
	}
	for bit := 1; bit < size; bit <<= 1 {
		net.Send(rank, rank^bit, tagBase+bit, bytes, local)
		remote := net.Recv(p, rank, tagBase+bit)
		if merge != nil {
			local = merge(local, remote)
		}
	}
	return local
}
