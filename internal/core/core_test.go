package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"grape6/internal/board"
	"grape6/internal/diag"
	"grape6/internal/gbackend"
	"grape6/internal/hermite"
	"grape6/internal/model"
	"grape6/internal/snapshot"
	"grape6/internal/xrand"
)

func tinyHW() board.Config {
	hw := board.Default
	hw.ChipsPerModule = 2
	hw.ModulesPerBoard = 2
	hw.Boards = 1
	return hw
}

// tinyGrape is a dedicated 4-chip emulated array.
func tinyGrape() *gbackend.Backend { return gbackend.New(board.New(tinyHW())) }

func TestDirectRun(t *testing.T) {
	sys := model.Plummer(64, xrand.New(2))
	sim, err := NewSimulator(sys, Config{Eps: 1.0 / 64})
	if err != nil {
		t.Fatal(err)
	}
	e0 := sim.Energy()
	sim.Run(0.25)
	if sim.Time() <= 0 || sim.Steps() == 0 || sim.Blocks() == 0 {
		t.Error("no progress recorded")
	}
	if rel := math.Abs((sim.Energy() - e0) / e0); rel > 1e-4 {
		t.Errorf("energy error %v", rel)
	}
	if sim.Interactions() == 0 || sim.Flops() != 57*float64(sim.Interactions()) {
		t.Error("flop accounting broken")
	}
	if sim.HardwareCycles() != 0 {
		t.Error("direct backend reported hardware cycles")
	}
}

func TestGrapeRun(t *testing.T) {
	sys := model.Plummer(48, xrand.New(3))
	sim, err := NewSimulator(sys, Config{Backend: tinyGrape(), Eps: 1.0 / 64})
	if err != nil {
		t.Fatal(err)
	}
	e0 := sim.Energy()
	sim.Run(0.125)
	if rel := math.Abs((sim.Energy() - e0) / e0); rel > 1e-4 {
		t.Errorf("energy error on hardware %v", rel)
	}
	if sim.HardwareCycles() == 0 {
		t.Error("no hardware cycles recorded")
	}
}

func TestEnergiesAndSynchronized(t *testing.T) {
	sys := model.Plummer(64, xrand.New(5))
	sim, err := NewSimulator(sys, Config{Eps: 1.0 / 64})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(0.125)
	e := diag.Measure(sim.Synchronized(), sim.Eps())
	if e.Kinetic <= 0 || e.Potential >= 0 {
		t.Errorf("energies %+v", e)
	}
	snap := sim.Synchronized()
	for i := 0; i < snap.N; i++ {
		if snap.Time[i] != sim.Time() {
			t.Fatalf("particle %d not synchronized", i)
		}
	}
	// Synchronization must not disturb the live system.
	if sys.Time[0] == sim.Time() && sys.Time[1] == sim.Time() && sys.Time[2] == sim.Time() {
		// possible but unlikely for all; check via Step values instead
		_ = snap
	}
}

func TestCheckpointRestore(t *testing.T) {
	sys := model.Plummer(48, xrand.New(6))
	cfg := Config{Eps: 1.0 / 64}
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(0.125)
	tCheck := sim.Time()
	stepsCheck := sim.Steps()
	e1 := sim.Energy()

	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	sim2, err := Restore(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sim2.Time() != tCheck {
		t.Errorf("restored time %v != %v", sim2.Time(), tCheck)
	}
	if sim2.Steps() != stepsCheck {
		t.Errorf("restored steps %d != %d", sim2.Steps(), stepsCheck)
	}
	// Energy continuity through the restart.
	if rel := math.Abs((sim2.Energy() - e1) / e1); rel > 1e-8 {
		t.Errorf("restart energy jump %v", rel)
	}
	// And it keeps running conservatively.
	sim2.Run(tCheck + 0.0625)
	if rel := math.Abs((sim2.Energy() - e1) / e1); rel > 1e-4 {
		t.Errorf("post-restart energy error %v", rel)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore(bytes.NewReader([]byte("junk")), Config{}); err == nil {
		t.Error("restored from garbage")
	}
}

// TestRestoreRejectsRepeatedIDs: a checkpoint whose particles 5 and 6
// share an id would load both copies and refresh only the later one on
// every update; Restore must refuse it.
func TestRestoreRejectsRepeatedIDs(t *testing.T) {
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
	if _, err := Restore(bytes.NewReader(data), Config{Backend: tinyGrape()}); err == nil {
		t.Fatal("restored a checkpoint with a repeated particle id")
	}
}

// TestNewSimulatorRejectsRepeatedIDs: a system whose particles 5 and 6
// share an id is refused on both backends, before any backend addresses
// a particle.
func TestNewSimulatorRejectsRepeatedIDs(t *testing.T) {
	for _, be := range []hermite.Backend{nil, tinyGrape()} {
		sys := model.Plummer(64, xrand.New(5))
		sys.ID[6] = sys.ID[5]
		if _, err := NewSimulator(sys, Config{Backend: be, Eps: 1.0 / 64}); err == nil || !strings.Contains(err.Error(), "repeated particle id") {
			t.Errorf("%T: NewSimulator of a system with a repeated id: got %v, want the repeated-id error", be, err)
		}
	}
}

func TestStepAdvances(t *testing.T) {
	sys := model.Plummer(32, xrand.New(7))
	sim, err := NewSimulator(sys, Config{Eps: 1.0 / 64})
	if err != nil {
		t.Fatal(err)
	}
	b := sim.Step()
	if b.Size < 1 {
		t.Errorf("block size %d", b.Size)
	}
	if sim.Blocks() != 1 {
		t.Errorf("blocks = %d", sim.Blocks())
	}
}

// TestHardwareStats: the protocol counters live on the backend the
// caller handed in; HardwareCycles reads the same cycles, and is zero on
// the float64 reference.
func TestHardwareStats(t *testing.T) {
	gb := tinyGrape()
	sim, err := NewSimulator(model.Plummer(32, xrand.New(15)), Config{Backend: gb, Eps: 1.0 / 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Run(0.0625)
	if gb.HWCycles == 0 || sim.HardwareCycles() != gb.HWCycles {
		t.Errorf("cycles: backend %d, simulator %d", gb.HWCycles, sim.HardwareCycles())
	}
	if gb.RangeClamps != 0 {
		t.Errorf("unexpected clamps: %d", gb.RangeClamps)
	}
	sim2, err := NewSimulator(model.Plummer(8, xrand.New(1)), Config{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if sim2.HardwareCycles() != 0 {
		t.Error("float64 reference reported hardware cycles")
	}
}

// closingBackend is the float64 reference with a Close that counts.
type closingBackend struct {
	*hermite.DirectBackend
	closes int
}

func (b *closingBackend) Close() { b.closes++ }

// closingArray is an emulated array whose Close only counts.
type closingArray struct {
	*board.Array
	closes int
}

func (a *closingArray) Close() { a.closes++ }

// TestSimulatorClosesItsBackend: the Simulator owns the backend it is
// given. Close reaches it, also when NewSimulator refuses the system, and
// a gbackend.NewBorrowed backend passes none of that on to the array it
// leases.
func TestSimulatorClosesItsBackend(t *testing.T) {
	be := &closingBackend{DirectBackend: hermite.NewDirectBackend()}
	sim, err := NewSimulator(model.Plummer(32, xrand.New(15)), Config{Backend: be, Eps: 1.0 / 64})
	if err != nil {
		t.Fatal(err)
	}
	sim.Close()
	if be.closes != 1 {
		t.Errorf("Close reached the backend %d times, want 1", be.closes)
	}

	refused := &closingBackend{DirectBackend: hermite.NewDirectBackend()}
	sys := model.Plummer(32, xrand.New(15))
	sys.ID[6] = sys.ID[5]
	if _, err := NewSimulator(sys, Config{Backend: refused, Eps: 1.0 / 64}); err == nil {
		t.Fatal("accepted a repeated id")
	}
	if refused.closes != 1 {
		t.Errorf("a refused system closed its backend %d times, want 1", refused.closes)
	}

	shared := board.New(tinyHW())
	defer shared.Close()
	lease := &closingArray{Array: shared}
	sim, err = NewSimulator(model.Plummer(32, xrand.New(15)), Config{Backend: gbackend.NewBorrowed(lease), Eps: 1.0 / 64})
	if err != nil {
		t.Fatal(err)
	}
	sim.Close()
	if lease.closes != 0 {
		t.Errorf("Close reached a borrowed array %d times", lease.closes)
	}
}

// TestRestoreEpsDiagnostics pins the restore-path softening contract:
// the restored simulator exposes the checkpoint header's eps, and
// conservation diagnostics computed with it match the fresh run's at
// the checkpoint time exactly. The grape6sim CLI once recomputed its
// post-restore diagnostics with a zero local eps — the third check
// shows that mistake is observable (the softened potential differs),
// so any regression fails loudly.
func TestRestoreEpsDiagnostics(t *testing.T) {
	const eps = 1.0 / 64
	sys := model.Plummer(64, xrand.New(9))
	sim, err := NewSimulator(sys, Config{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(0.125)

	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Eps() != eps {
		t.Fatalf("restored eps = %v, want %v", restored.Eps(), eps)
	}

	fresh := diag.Measure(sim.Synchronized(), sim.Eps())
	again := diag.Measure(restored.Synchronized(), restored.Eps())
	if fresh.Total() != again.Total() || fresh.Virial != again.Virial {
		t.Errorf("restored diagnostics diverge: fresh E=%v virial=%v, restored E=%v virial=%v",
			fresh.Total(), fresh.Virial, again.Total(), again.Virial)
	}

	// The pre-fix failure mode: measuring with eps=0 instead of the
	// header value visibly changes the energy.
	bad := diag.Measure(restored.Synchronized(), 0)
	if bad.Total() == again.Total() {
		t.Error("eps=0 diagnostics indistinguishable from the softened ones; regression test has no teeth")
	}
}
