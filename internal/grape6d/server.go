package grape6d

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net"
	"net/rpc"
	"sync"

	"grape6/internal/gbackend"
	"grape6/internal/gfixed"
	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/nbody"
	"grape6/internal/snapshot"
	"grape6/internal/xrand"
)

// Server is the grape6d daemon: named Hermite integrations, each a
// tenant of one shared Scheduler, driven remotely over net/rpc. It is
// the service shape of the real GRAPE-6 installation — one machine,
// many users' host programs — with the scheduler keeping the pipelines
// full across them.
type Server struct {
	sched *Scheduler

	mu   sync.Mutex
	sims map[string]*sim
}

// sim is one hosted integration: a scheduler lease, the GRAPE library
// layer over it, and the integrator state. Its own lock serializes
// RPCs against the same session; different sessions proceed in
// parallel (that is the point of the daemon).
type sim struct {
	mu    sync.Mutex
	lease *Session
	be    *gbackend.Backend
	it    *hermite.Integrator
	sys   *nbody.System
	eps   float64
	seed  uint64
}

// NewServer wraps a scheduler in the RPC service. The server takes
// ownership: Close shuts the scheduler down.
func NewServer(sched *Scheduler) *Server {
	return &Server{sched: sched, sims: make(map[string]*sim)}
}

// Close detaches every hosted session and closes the scheduler.
func (sv *Server) Close() {
	sv.mu.Lock()
	sims := make([]*sim, 0, len(sv.sims))
	for _, sm := range sv.sims {
		if sm == nil {
			continue // name reserved by an in-flight start; it rolls back
		}
		sims = append(sims, sm)
	}
	sv.sims = make(map[string]*sim)
	sv.mu.Unlock()
	for _, sm := range sims {
		sm.lease.Detach()
	}
	sv.sched.Close()
}

// Serve accepts RPC connections on ln until it is closed.
func (sv *Server) Serve(ln net.Listener) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName("grape6d", &RPC{sv: sv}); err != nil {
		return err
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go srv.ServeConn(conn)
	}
}

func (sv *Server) get(name string) (*sim, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sm, ok := sv.sims[name]
	if !ok || sm == nil { // nil: name reserved, session still being built
		return nil, fmt.Errorf("grape6d: no session %q", name)
	}
	return sm, nil
}

// start builds a hosted integration from an initial system and
// registers it under name. Only the name reservation and the final
// install hold sv.mu: building the integrator runs the full O(N²)
// initial force evaluation, and holding the server lock across it
// would stall every other tenant's RPCs for the duration.
func (sv *Server) start(name string, sys *nbody.System, eps float64, seed uint64) (*sim, error) {
	sv.mu.Lock()
	if _, dup := sv.sims[name]; dup {
		sv.mu.Unlock()
		return nil, fmt.Errorf("grape6d: session %q already attached", name)
	}
	sv.sims[name] = nil // reserve the name; built below, outside the lock
	sv.mu.Unlock()
	unreserve := func() {
		sv.mu.Lock()
		if sm, ok := sv.sims[name]; ok && sm == nil {
			delete(sv.sims, name)
		}
		sv.mu.Unlock()
	}

	lease, err := sv.sched.Attach(name, Quota{})
	if err != nil {
		unreserve()
		return nil, err
	}
	be := gbackend.NewBorrowed(lease)
	it, err := hermite.New(sys, be, hermite.DefaultParams(eps))
	if err != nil {
		lease.Detach()
		unreserve()
		return nil, err
	}
	sm := &sim{lease: lease, be: be, it: it, sys: sys, eps: eps, seed: seed}
	sv.mu.Lock()
	if _, still := sv.sims[name]; !still {
		// Server.Close swept the map while we were building: roll back.
		sv.mu.Unlock()
		lease.Detach()
		return nil, fmt.Errorf("grape6d: server closed")
	}
	sv.sims[name] = sm
	sv.mu.Unlock()
	return sm, nil
}

// RPC is the wire-facing method set (net/rpc requires the two-argument
// pointer shape). All state lives on the Server.
type RPC struct{ sv *Server }

// AttachArgs creates a session over a seeded Plummer model — the
// standard workload of the paper's measurements.
type AttachArgs struct {
	Name string
	N    int
	Seed uint64
	Eps  float64 // zero: 1/64, the suite's default softening
}

// AttachReply reports the created session.
type AttachReply struct {
	N  int
	ID int
}

// MaxAttachN bounds the N one Attach request may ask for: building a
// session allocates O(N) and runs the O(N²) initial force evaluation, and
// the paper's largest run is 2×10⁶ particles.
const MaxAttachN = 1 << 21

// Attach implements the session-create RPC.
func (r *RPC) Attach(args *AttachArgs, reply *AttachReply) error {
	if args.N <= 0 || args.N > MaxAttachN {
		return fmt.Errorf("grape6d: attach with N=%d outside [1, %d]", args.N, MaxAttachN)
	}
	eps := args.Eps
	if eps == 0 {
		eps = 1.0 / 64
	}
	sys := model.Plummer(args.N, xrand.New(args.Seed))
	sm, err := r.sv.start(args.Name, sys, eps, args.Seed)
	if err != nil {
		return err
	}
	reply.N = sys.N
	reply.ID = sm.lease.ID()
	return nil
}

// StepArgs advances a session by whole block steps.
type StepArgs struct {
	Name   string
	Blocks int
}

// StepReply reports integration progress.
type StepReply struct {
	T        float64
	Steps    int64
	Blocks   int64
	HWCycles int64
}

// Step implements the advance RPC.
func (r *RPC) Step(args *StepArgs, reply *StepReply) error {
	sm, err := r.sv.get(args.Name)
	if err != nil {
		return err
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	for k := 0; k < args.Blocks; k++ {
		sm.it.Step()
	}
	reply.T = sm.it.T
	reply.Steps = sm.it.Steps
	reply.Blocks = sm.it.Blocks
	reply.HWCycles = sm.be.HWCycles
	return nil
}

// SnapshotArgs names the session to checkpoint.
type SnapshotArgs struct{ Name string }

// SnapshotReply carries the serialized snapshot stream (magic, version,
// header, particle records, CRC-32 trailer — internal/snapshot format).
type SnapshotReply struct {
	Data []byte
	T    float64
}

// Snapshot implements the checkpoint RPC: the session's state is
// synchronized to its current time and serialized, exactly like a
// dedicated run's core.Simulator.Checkpoint.
func (r *RPC) Snapshot(args *SnapshotArgs, reply *SnapshotReply) error {
	sm, err := r.sv.get(args.Name)
	if err != nil {
		return err
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	snap := sm.it.Synchronize(sm.it.T)
	h := snapshot.Header{
		N:    int64(snap.N),
		Time: sm.it.T,
		Eps:  sm.eps,
		Step: sm.it.Steps,
	}
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, h, snap); err != nil {
		return err
	}
	reply.Data = buf.Bytes()
	reply.T = sm.it.T
	return nil
}

// RestoreArgs creates a session from a snapshot stream.
type RestoreArgs struct {
	Name string
	Data []byte
}

// RestoreReply reports the restored session.
type RestoreReply struct {
	N int
	T float64
}

// Restore implements the checkpoint-restore RPC: the restart
// re-initialises forces and timesteps at the checkpoint time, the same
// cold-restart semantics as core.Restore — so a restored daemon session
// and a restored dedicated run are bit-identical from the first block.
// A snapshot is held to MaxAttachN particles, like an attach, before any
// record is read.
func (r *RPC) Restore(args *RestoreArgs, reply *RestoreReply) error {
	h, sys, err := snapshot.ReadLimited(bytes.NewReader(args.Data), MaxAttachN)
	if err != nil {
		return err
	}
	sm, err := r.sv.start(args.Name, sys, h.Eps, 0)
	if err != nil {
		return err
	}
	sm.mu.Lock()
	sm.it.Steps = h.Step
	sm.mu.Unlock()
	reply.N = sys.N
	reply.T = h.Time
	return nil
}

// DetachArgs names the session to remove.
type DetachArgs struct{ Name string }

// DetachReply is empty.
type DetachReply struct{}

// Detach implements the session-remove RPC. The fleet keeps serving
// the remaining tenants.
func (r *RPC) Detach(args *DetachArgs, reply *DetachReply) error {
	sv := r.sv
	sv.mu.Lock()
	sm, ok := sv.sims[args.Name]
	if sm == nil { // absent, or reserved by an in-flight start
		ok = false
	} else {
		delete(sv.sims, args.Name)
	}
	sv.mu.Unlock()
	if !ok {
		return fmt.Errorf("grape6d: no session %q", args.Name)
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	sm.lease.Detach()
	return nil
}

// StatsArgs is empty (scheduler-wide snapshot).
type StatsArgs struct{}

// Stats implements the statistics RPC: per-session cycles and queue
// depths, batch-fill histogram and board occupancy.
func (r *RPC) Stats(args *StatsArgs, reply *Stats) error {
	*reply = r.sv.sched.Stats()
	return nil
}

// HashArgs names the session whose state to fingerprint.
type HashArgs struct{ Name string }

// HashReply carries the state fingerprint and the time it was taken at.
type HashReply struct {
	Hash uint64
	T    float64
}

// Hash implements the determinism probe: an FNV-1a fingerprint over the
// session's synchronized state bits. A dedicated run of the same
// workload to the same time must produce the same value — the smoke
// harness and CI pin the scheduler's bit-exactness contract with it.
func (r *RPC) Hash(args *HashArgs, reply *HashReply) error {
	sm, err := r.sv.get(args.Name)
	if err != nil {
		return err
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	reply.Hash = SystemHash(sm.it.Synchronize(sm.it.T))
	reply.T = sm.it.T
	return nil
}

// SystemHash fingerprints every particle's full dynamical state bits.
func SystemHash(sys *nbody.System) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(f float64) { w(gfixed.FloatBits(f)) }
	wv := func(v [3]float64) { wf(v[0]); wf(v[1]); wf(v[2]) }
	for i := 0; i < sys.N; i++ {
		w(uint64(sys.ID[i]))
		wf(sys.Mass[i])
		wv([3]float64{sys.Pos[i].X, sys.Pos[i].Y, sys.Pos[i].Z})
		wv([3]float64{sys.Vel[i].X, sys.Vel[i].Y, sys.Vel[i].Z})
		wv([3]float64{sys.Acc[i].X, sys.Acc[i].Y, sys.Acc[i].Z})
		wv([3]float64{sys.Jerk[i].X, sys.Jerk[i].Y, sys.Jerk[i].Z})
		wf(sys.Pot[i])
		wf(sys.Time[i])
		wf(sys.Step[i])
	}
	return h.Sum64()
}
