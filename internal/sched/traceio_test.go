package sched

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"grape6/internal/hermite"
	"grape6/internal/units"
)

func sampleTrace() *Trace {
	return &Trace{
		N: 1024, Kind: units.SoftOverN, Eps: 4.0 / 1024, Duration: 0.5,
		Blocks: []hermite.BlockStat{
			{Time: 0.125, Size: 10},
			{Time: 0.25, Size: 200},
			{Time: 0.375, Size: 3},
			{Time: 0.5, Size: 1024},
		},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != tr.N || got.Kind != tr.Kind || got.Eps != tr.Eps || got.Duration != tr.Duration {
		t.Errorf("header mismatch: %+v vs %+v", got, tr)
	}
	if len(got.Blocks) != len(tr.Blocks) {
		t.Fatalf("block count %d", len(got.Blocks))
	}
	for i := range tr.Blocks {
		if got.Blocks[i] != tr.Blocks[i] {
			t.Errorf("block %d: %+v vs %+v", i, got.Blocks[i], tr.Blocks[i])
		}
	}
	// Derived statistics survive.
	if got.TotalSteps() != tr.TotalSteps() || got.MeanBlockSize() != tr.MeanBlockSize() {
		t.Error("derived statistics differ")
	}
}

func TestTraceEmptyRoundTrip(t *testing.T) {
	tr := &Trace{N: 10, Duration: 1}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Blocks) != 0 {
		t.Errorf("blocks = %d", len(got.Blocks))
	}
}

func TestTraceCorruptionDetected(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0x01
	if _, err := ReadTrace(bytes.NewReader(data)); err == nil {
		t.Error("corruption not detected")
	}
}

func TestTraceBadMagic(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Error("accepted garbage")
	}
}

func TestTraceTruncation(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadTrace(bytes.NewReader(data[:len(data)-6])); err == nil {
		t.Error("truncation not detected")
	}
}

func TestMeasuredTraceRoundTrip(t *testing.T) {
	// A real measured trace survives the round trip and still feeds the
	// workload fit.
	tr, err := Record(96, units.SoftConstant, 0.125, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.StepsPerUnitTime() != tr.StepsPerUnitTime() {
		t.Error("rates differ after round trip")
	}
	tr2, err := Record(192, units.SoftConstant, 0.125, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromTraces(units.SoftConstant, []*Trace{got, tr2}); err != nil {
		t.Errorf("restored trace unusable for fitting: %v", err)
	}
}

// hugeHeader is a bare 48-byte header that claims 2³² blocks and carries
// none of them.
func hugeHeader() []byte {
	var buf bytes.Buffer
	for _, v := range []interface{}{
		uint32(traceMagic), uint32(traceVersion),
		int64(1024), int64(units.SoftConstant), 1.0 / 64, 1.0, int64(1 << 32),
	} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// A header may claim any block count up to 2³² before a single block has
// been read. Reading must not reserve room for the claim — 2³² blocks are
// 64 GB, which used to kill the process — but fail where the stream ends.
func TestTraceHugeBlockCountHeader(t *testing.T) {
	data := hugeHeader()
	if len(data) != 48 {
		t.Fatalf("header is %d bytes, want 48", len(data))
	}
	_, err := ReadTrace(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "block 0") {
		t.Errorf("got %v, want an error at block 0", err)
	}
}

// FuzzReadTrace feeds ReadTrace arbitrary bytes. It must return an error or
// a trace, never panic or exhaust memory, and a trace it accepts must
// encode back to the bytes it was read from.
func FuzzReadTrace(f *testing.F) {
	for _, tr := range []*Trace{sampleTrace(), {N: 10, Duration: 1}} {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(hugeHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Errorf("accepted trace re-encodes to %x, read from %x", buf.Bytes(), data)
		}
	})
}
