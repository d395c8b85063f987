package grape6d

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"grape6/internal/board"
	"grape6/internal/core"
	"grape6/internal/gbackend"
	"grape6/internal/model"
	"grape6/internal/nbody"
	"grape6/internal/snapshot"
	"grape6/internal/xrand"
)

// startDaemon brings up a server on a loopback listener and returns a
// connected client. Cleanup closes both.
func startDaemon(t *testing.T, hw board.Config, fleet int) *Client {
	t.Helper()
	sv := NewServer(NewScheduler(Config{Fleet: fleet, HW: hw}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sv.Serve(ln)
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		ln.Close()
		sv.Close()
	})
	return cl
}

// TestDaemonRoundTrip drives the full session lifecycle over the wire —
// attach, step, snapshot, restore, step, detach — with a second tenant
// contending for the same array throughout, and pins both trajectories
// bit-identical to dedicated runs (core.NewSimulator / core.Restore on
// a private array of the same shape): the state hashes, and the
// snapshot bytes against the dedicated runs' Checkpoint.
func TestDaemonRoundTrip(t *testing.T) {
	hw := smallHW()
	const eps = 1.0 / 64
	cl := startDaemon(t, hw, 1)

	if _, err := cl.Attach(AttachArgs{Name: "a", N: 96, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Attach(AttachArgs{Name: "b", N: 64, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Attach(AttachArgs{Name: "a", N: 8, Seed: 1}); err == nil {
		t.Fatalf("duplicate attach succeeded")
	}

	const blocks = 12
	for k := 0; k < blocks/2; k++ {
		if _, err := cl.Step("a", 2); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Step("b", 2); err != nil {
			t.Fatal(err)
		}
	}

	snap, err := cl.Snapshot("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Restore("a2", snap.Data); err != nil {
		t.Fatal(err)
	}
	const extra = 6
	if _, err := cl.Step("a2", extra); err != nil {
		t.Fatal(err)
	}
	if err := cl.Detach("b"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Detach("b"); err == nil {
		t.Fatalf("double detach succeeded")
	}
	if _, err := cl.Step("a", 1); err != nil {
		t.Fatal(err)
	}

	// Dedicated-run references.
	solo, err := core.NewSimulator(model.Plummer(96, xrand.New(5)), core.Config{
		Backend: gbackend.New(board.New(hw)), Eps: eps,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	for k := 0; k < blocks; k++ {
		solo.Step()
	}
	var ckpt bytes.Buffer
	if err := solo.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Data, ckpt.Bytes()) {
		t.Errorf("session a's snapshot differs from the dedicated run's checkpoint after the same %d blocks", blocks)
	}
	solo.Step()
	wantA := SystemHash(solo.Synchronized())
	gotA, err := cl.Hash("a")
	if err != nil {
		t.Fatal(err)
	}
	if gotA.Hash != wantA {
		t.Errorf("session a hash %#016x, dedicated run %#016x", gotA.Hash, wantA)
	}

	soloRestored, err := core.Restore(bytes.NewReader(snap.Data), core.Config{
		Backend: gbackend.New(board.New(hw)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer soloRestored.Close()
	for k := 0; k < extra; k++ {
		soloRestored.Step()
	}
	wantA2 := SystemHash(soloRestored.Synchronized())
	gotA2, err := cl.Hash("a2")
	if err != nil {
		t.Fatal(err)
	}
	if gotA2.Hash != wantA2 {
		t.Errorf("restored session hash %#016x, dedicated restore %#016x", gotA2.Hash, wantA2)
	}
	snap2, err := cl.Snapshot("a2")
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Reset()
	if err := soloRestored.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap2.Data, ckpt.Bytes()) {
		t.Errorf("restored session's snapshot differs from the dedicated restore's checkpoint")
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sessions) != 2 {
		t.Errorf("stats report %d sessions after detach, want 2", len(st.Sessions))
	}
	if st.Arrays[0].Swaps < 2 {
		t.Errorf("swaps = %d on the contended array, want ≥ 2", st.Arrays[0].Swaps)
	}
}

// TestServerConcurrentAttach pins the start path's locking: the name is
// reserved under sv.mu but the integrator (with its O(N²) initial force
// evaluation) is built outside it, so concurrent attaches of different
// names proceed in parallel while two racing attaches of the same name
// still yield exactly one session. A detached name is attachable again.
func TestServerConcurrentAttach(t *testing.T) {
	sv := NewServer(NewScheduler(Config{HW: smallHW()}))
	defer sv.Close()

	newSys := func(seed uint64) *nbody.System { return model.Plummer(48, xrand.New(seed)) }
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for k := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := "dup"
			if k%2 == 1 {
				name = fmt.Sprintf("solo%d", k)
			}
			_, errs[k] = sv.start(name, snapshot.Header{Eps: 1.0 / 64}, newSys(uint64(k+1)))
		}()
	}
	wg.Wait()

	dupOK := 0
	for k, err := range errs {
		if k%2 == 1 {
			if err != nil {
				t.Errorf("concurrent attach of distinct name %d failed: %v", k, err)
			}
			continue
		}
		if err == nil {
			dupOK++
		}
	}
	if dupOK != 1 {
		t.Errorf("%d of 2 same-name attaches succeeded, want exactly 1", dupOK)
	}
	if _, err := sv.get("dup"); err != nil {
		t.Fatalf("winning session not installed: %v", err)
	}
	if _, err := sv.start("dup", snapshot.Header{Eps: 1.0 / 64}, newSys(9)); err == nil {
		t.Fatal("duplicate attach succeeded after the race settled")
	}

	r := &RPC{sv: sv}
	if err := r.Detach(&DetachArgs{Name: "dup"}, &DetachReply{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.start("dup", snapshot.Header{Eps: 1.0 / 64}, newSys(9)); err != nil {
		t.Fatalf("reattach after detach failed: %v", err)
	}
}

// snapshotHeader is the 40 bytes a snapshot stream opens with — magic,
// version and a header claiming n particles — and nothing after them.
func snapshotHeader(n int64) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, [2]uint32{snapshot.Magic, snapshot.Version})
	binary.Write(&buf, binary.LittleEndian, snapshot.Header{N: n})
	return buf.Bytes()
}

// TestDaemonRejectsBadInput pins the failure paths reachable over the
// wire: unknown session names, zero-N and oversized-N attaches and
// restores, and corrupt snapshot streams must come back as errors, not
// crash the daemon (or, for an N above MaxAttachN, make it allocate
// whatever was asked).
func TestDaemonRejectsBadInput(t *testing.T) {
	cl := startDaemon(t, smallHW(), 1)

	if _, err := cl.Step("ghost", 1); err == nil {
		t.Errorf("Step on unknown session succeeded")
	}
	if _, err := cl.Snapshot("ghost"); err == nil {
		t.Errorf("Snapshot on unknown session succeeded")
	}
	if _, err := cl.Hash("ghost"); err == nil {
		t.Errorf("Hash on unknown session succeeded")
	}
	if _, err := cl.Attach(AttachArgs{Name: "z", N: 0}); err == nil {
		t.Errorf("Attach with N=0 succeeded")
	}
	if _, err := cl.Attach(AttachArgs{Name: "z", N: MaxAttachN + 1}); err == nil {
		t.Errorf("Attach with N above MaxAttachN succeeded")
	}
	if _, err := cl.Restore("r", []byte("not a snapshot")); err == nil {
		t.Errorf("Restore of garbage stream succeeded")
	}
	// The 40 bytes before a snapshot's first record, claiming 2³¹
	// particles: the daemon used to allocate 17 GB for them and die.
	if _, err := cl.Restore("r", snapshotHeader(1<<31)); err == nil {
		t.Errorf("Restore of a bare header claiming 2^31 particles succeeded")
	}
	// A restart runs the same O(N²) initial evaluation as an attach, so
	// it is held to the same bound before any record is read.
	if _, err := cl.Restore("r", snapshotHeader(MaxAttachN+1)); err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxAttachN)) {
		t.Errorf("Restore with N above MaxAttachN: got %v, want an error naming the bound", err)
	}

	// The daemon must still be serving after all of that.
	if _, err := cl.Attach(AttachArgs{Name: "ok", N: 32, Seed: 3}); err != nil {
		t.Fatalf("daemon wedged after bad input: %v", err)
	}
	if _, err := cl.Step("ok", 1); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsRepeatedIDs sends a snapshot whose particles 5 and 6
// share an id. It used to panic the daemon on the RPC handler goroutine,
// which net/rpc does not recover. It must come back as an error that
// leaves the name free and the daemon serving.
func TestRestoreRejectsRepeatedIDs(t *testing.T) {
	cl := startDaemon(t, smallHW(), 1)
	// snapshot.Write refuses a repeated id, so it is patched into a valid
	// stream (40 header bytes, 184-byte records) and the CRC-32 trailer
	// recomputed.
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, snapshot.Header{N: 64, Eps: 1.0 / 64}, model.Plummer(64, xrand.New(5))); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	const header, record = 40, 184
	copy(data[header+5*record:header+5*record+8], data[header+6*record:])
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	if _, err := cl.Restore("dup", data); err == nil || !strings.Contains(err.Error(), "repeated particle id") {
		t.Fatalf("Restore of a snapshot with a repeated id: got %v, want the repeated-id error", err)
	}
	for _, name := range []string{"dup", "second"} {
		if _, err := cl.Attach(AttachArgs{Name: name, N: 32, Seed: 3}); err != nil {
			t.Fatalf("attach %q after the rejected restore: %v", name, err)
		}
		if _, err := cl.Step(name, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreRelabelled sends a snapshot whose particles are labelled
// 1000+i. Ids are labels, never addresses: the restored session must
// step bit-identically to core.Restore of the same bytes on a private
// array, and the daemon must go on serving. It used to panic the RPC
// handler goroutine, looking the slots 0..63 up as ids.
func TestRestoreRelabelled(t *testing.T) {
	hw := smallHW()
	cl := startDaemon(t, hw, 1)
	sys := model.Plummer(64, xrand.New(5))
	for i := range sys.ID {
		sys.ID[i] = 1000 + i
	}
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, snapshot.Header{N: 64, Eps: 1.0 / 64}, sys); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Restore("relabelled", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	const blocks = 8
	if _, err := cl.Step("relabelled", blocks); err != nil {
		t.Fatal(err)
	}
	solo, err := core.Restore(bytes.NewReader(buf.Bytes()), core.Config{Backend: gbackend.New(board.New(hw))})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	for k := 0; k < blocks; k++ {
		solo.Step()
	}
	got, err := cl.Hash("relabelled")
	if err != nil {
		t.Fatal(err)
	}
	if want := SystemHash(solo.Synchronized()); got.Hash != want {
		t.Errorf("relabelled session hash %#016x, dedicated restore %#016x", got.Hash, want)
	}
	if _, err := cl.Attach(AttachArgs{Name: "next", N: 32, Seed: 3}); err != nil {
		t.Fatalf("attach after the relabelled restore: %v", err)
	}
	if _, err := cl.Step("next", 1); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonRejectsNonFiniteInput sends the four non-finite inputs that
// used to panic an RPC handler goroutine, which net/rpc does not
// recover, so every tenant died with the process: an attach softening of
// NaN or +Inf, a snapshot whose header softening is NaN, and one whose
// particle times are all +Inf. Each must come back as an error while
// another session keeps stepping.
func TestDaemonRejectsNonFiniteInput(t *testing.T) {
	cl := startDaemon(t, smallHW(), 1)
	if _, err := cl.Attach(AttachArgs{Name: "ok", N: 32, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	stillServing := func(after string) {
		t.Helper()
		if _, err := cl.Step("ok", 1); err != nil {
			t.Fatalf("step after %s: %v", after, err)
		}
	}
	for _, eps := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := cl.Attach(AttachArgs{Name: "bad", N: 32, Seed: 3, Eps: eps}); err == nil {
			t.Errorf("Attach with Eps=%v succeeded", eps)
		}
		stillServing(fmt.Sprintf("an attach with Eps=%v", eps))
	}

	var nanEps bytes.Buffer
	if err := snapshot.Write(&nanEps, snapshot.Header{N: 64, Eps: math.NaN()}, model.Plummer(64, xrand.New(5))); err != nil {
		t.Fatal(err)
	}
	// snapshot.Write refuses a non-finite particle time, so +Inf is
	// patched into every record of a valid stream (40 header bytes,
	// 184-byte records with the time 168 bytes in) and the CRC-32
	// trailer recomputed.
	var infTime bytes.Buffer
	if err := snapshot.Write(&infTime, snapshot.Header{N: 64, Eps: 1.0 / 64}, model.Plummer(64, xrand.New(5))); err != nil {
		t.Fatal(err)
	}
	data := infTime.Bytes()
	const header, record, timeAt = 40, 184, 168
	for i := 0; i < 64; i++ {
		binary.LittleEndian.PutUint64(data[header+i*record+timeAt:], math.Float64bits(math.Inf(1)))
	}
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))

	for _, tc := range []struct {
		name   string
		stream []byte
	}{
		{"a NaN header softening", nanEps.Bytes()},
		{"every particle time +Inf", data},
	} {
		if _, err := cl.Restore("bad", tc.stream); err == nil {
			t.Errorf("Restore of a snapshot with %s succeeded", tc.name)
		}
		stillServing("a restore with " + tc.name)
	}
}
