package parallel

import (
	"sort"

	"grape6/internal/des"
	"grape6/internal/direct"
	"grape6/internal/hermite"
	"grape6/internal/nbody"
	"grape6/internal/simnet"
	"grape6/internal/vec"
	"grape6/internal/vtrace"
)

// The steps of a block round that every exchange takes the same way.

// update carries one particle's corrected state between hosts. slot is
// the particle's slot in the whole system; a host storing a contiguous
// range of slots from off on writes it to its own slot slot-off.
type update struct {
	slot                             int
	pos, vel, acc, jerk, snap, crack vec.V3
	pot, time, step                  float64
}

// updateBytes is the wire size of one update: 18 coordinates + 3 scalars
// + slot ≈ 176 bytes.
const updateBytes = 176

// Per-round message tags: a round's tags are round*tagStride + one of the
// offsets the exchanges define below tagMin.
const (
	tagStride = 4096
	tagMin    = 2048 // allreduce of the next block time
)

// scratch is one host's per-round working storage, reused across the run.
// Only buffers that are NEVER shipped as message payloads live here —
// payload slices must stay freshly allocated, since simnet delivers them
// by reference at a later virtual time.
type scratch struct {
	block   []int // slots due at the block time
	mine    []int // the share of block this host's group integrates
	changed []int
	xs, vs  []vec.V3
	fbuf    []direct.Force
}

// selectBlock fills sc.block with the slots of sys whose next time equals
// t, and sc.mine with those among them whose id is congruent to share
// modulo groups — the copy algorithm's split of a block between the
// holders of a full replica. groups is a power of two, so masking is the
// non-negative residue for negative ids too.
func (sc *scratch) selectBlock(sys *nbody.System, t float64, groups, share int) {
	sc.block, sc.mine = sc.block[:0], sc.mine[:0]
	for i := 0; i < sys.N; i++ {
		if sys.Time[i]+sys.Step[i] == t {
			sc.block = append(sc.block, i)
			if sys.ID[i]&(groups-1) == share {
				sc.mine = append(sc.mine, i)
			}
		}
	}
}

// predict stages the i-particles at the given slots of sys, predicted to
// time t, into sc.xs/vs.
func (sc *scratch) predict(sys *nbody.System, slots []int, t float64) {
	sc.xs, sc.vs = sc.xs[:0], sc.vs[:0]
	for _, i := range slots {
		x, v := hermite.Predict(sys.Pos[i], sys.Vel[i], sys.Acc[i], sys.Jerk[i], sys.Snap[i], t-sys.Time[i])
		sc.xs = append(sc.xs, x)
		sc.vs = append(sc.vs, v)
	}
}

// forces evaluates the staged i-particles against b's j-set. slots are
// their slots in the system b holds, nil when they are visitors (see
// hermite.Backend). The result aliases sc.fbuf: consume it before the
// next call.
func (sc *scratch) forces(b hermite.Backend, slots []int, t, eps float64) []direct.Force {
	if cap(sc.fbuf) < len(sc.xs) {
		sc.fbuf = make([]direct.Force, len(sc.xs))
	}
	return b.ForcesInto(sc.fbuf[:len(sc.xs)], t, slots, sc.xs, sc.vs, eps)
}

// absorb overwrites the particles of sys, which holds the whole system's
// slots from off on, with their corrected state from ups and, when b is
// non-nil, refreshes b's image of the slots that changed.
func (sc *scratch) absorb(sys *nbody.System, off int, ups []update, b hermite.Backend) {
	sc.changed = sc.changed[:0]
	for q := range ups {
		u := &ups[q]
		i := u.slot - off
		sys.Pos[i], sys.Vel[i] = u.pos, u.vel
		sys.Acc[i], sys.Jerk[i] = u.acc, u.jerk
		sys.Snap[i], sys.Crack[i] = u.snap, u.crack
		sys.Pot[i], sys.Time[i], sys.Step[i] = u.pot, u.time, u.step
		sc.changed = append(sc.changed, i)
	}
	if b != nil && len(sc.changed) > 0 {
		b.Update(sys, sc.changed)
	}
}

// correctParticle advances particle i of sys, which holds the whole
// system's slots from off on, to time t with the freshly evaluated force f
// (hermite.Advance) and returns the update record.
func correctParticle(sys *nbody.System, off, i int, f direct.Force, t float64, p hermite.Params) update {
	hermite.Advance(sys, i, f, t, p)
	return update{
		slot: off + i,
		pos:  sys.Pos[i], vel: sys.Vel[i], acc: sys.Acc[i], jerk: sys.Jerk[i],
		snap: sys.Snap[i], crack: sys.Crack[i],
		pot: sys.Pot[i], time: sys.Time[i], step: sys.Step[i],
	}
}

// gatherUpdates performs a recursive-doubling allgather of update lists
// among `size` hosts (power of two): after log2(size) rounds every host
// holds the concatenation of all lists, which it returns sorted by slot
// (hosts receive them in topology-dependent order). Tag space: tagBase
// must be unique per call site and block round.
func gatherUpdates(p *des.Proc, net *simnet.Network, rank, size, tagBase int, local []update) []update {
	for bit := 1; bit < size; bit <<= 1 {
		peer := rank ^ bit
		// Ship a private copy: simnet delivers the payload at a LATER
		// virtual time, and the caller keeps appending to (and finally
		// sorts) its own list — sending the live slice would let those
		// mutations corrupt the in-flight message.
		out := make([]update, len(local))
		copy(out, local)
		net.Send(rank, peer, tagBase+bit, len(out)*updateBytes, out)
		msg := net.Recv(p, rank, tagBase+bit)
		local = append(local, msg.Payload.([]update)...)
	}
	sort.Slice(local, func(i, j int) bool { return local[i].slot < local[j].slot })
	return local
}

// allreduceMin returns the minimum of each host's local value via a
// butterfly exchange. Blocked-receive time inside the butterfly is the
// block-time agreement barrier, so it is attributed to the Sync phase on
// rec (nil rec: no accounting).
func allreduceMin(p *des.Proc, net *simnet.Network, rank, size, tagBase int, local float64, rec *vtrace.Recorder) float64 {
	old := rec.SetWait(vtrace.Sync)
	v := net.Butterfly(p, rank, size, tagBase, 8, local, func(a, b interface{}) interface{} {
		if b.(float64) < a.(float64) {
			return b
		}
		return a
	})
	rec.SetWait(old)
	return v.(float64)
}
