package sched

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"grape6/internal/hermite"
	"grape6/internal/units"
)

// Trace persistence: measured block traces are the calibration artefacts
// of the reproduction (DESIGN.md §3); saving them lets the expensive
// functional runs be done once and replayed by the timing simulator.

// traceMagic identifies a trace stream ("G6TR").
const traceMagic = 0x47365452

// traceVersion is the current format version.
const traceVersion = 1

// maxPrealloc caps the blocks ReadTrace reserves room for before reading
// any of them.
const maxPrealloc = 1 << 16

// Write serialises the trace with a CRC-32 trailer.
func (t *Trace) Write(w io.Writer) error {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)

	hdr := []interface{}{
		uint32(traceMagic), uint32(traceVersion),
		int64(t.N), int64(t.Kind), t.Eps, t.Duration, int64(len(t.Blocks)),
	}
	for _, v := range hdr {
		if err := binary.Write(mw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, b := range t.Blocks {
		if err := binary.Write(mw, binary.LittleEndian, b.Time); err != nil {
			return err
		}
		if err := binary.Write(mw, binary.LittleEndian, int64(b.Size)); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// ReadTrace deserialises a trace, verifying magic, version and checksum.
func ReadTrace(r io.Reader) (*Trace, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)

	var magic, version uint32
	if err := binary.Read(tr, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("sched: reading magic: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("sched: bad trace magic %#x", magic)
	}
	if err := binary.Read(tr, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != traceVersion {
		return nil, fmt.Errorf("sched: unsupported trace version %d", version)
	}
	var n, kind, blocks int64
	out := &Trace{}
	if err := binary.Read(tr, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if err := binary.Read(tr, binary.LittleEndian, &kind); err != nil {
		return nil, err
	}
	if err := binary.Read(tr, binary.LittleEndian, &out.Eps); err != nil {
		return nil, err
	}
	if err := binary.Read(tr, binary.LittleEndian, &out.Duration); err != nil {
		return nil, err
	}
	if err := binary.Read(tr, binary.LittleEndian, &blocks); err != nil {
		return nil, err
	}
	if n < 0 || blocks < 0 || blocks > 1<<32 {
		return nil, fmt.Errorf("sched: implausible trace header N=%d blocks=%d", n, blocks)
	}
	out.N = int(n)
	out.Kind = units.SofteningKind(kind)
	// The header's count is not trusted for the allocation: the slice grows
	// as blocks arrive, so a short stream claiming 2³² blocks fails at its
	// end instead of asking for 64 GB up front.
	out.Blocks = make([]hermite.BlockStat, 0, min(blocks, maxPrealloc))
	for i := int64(0); i < blocks; i++ {
		var b hermite.BlockStat
		if err := binary.Read(tr, binary.LittleEndian, &b.Time); err != nil {
			return nil, fmt.Errorf("sched: block %d: %w", i, err)
		}
		var sz int64
		if err := binary.Read(tr, binary.LittleEndian, &sz); err != nil {
			return nil, fmt.Errorf("sched: block %d: %w", i, err)
		}
		b.Size = int(sz)
		out.Blocks = append(out.Blocks, b)
	}
	want := crc.Sum32()
	var got uint32
	if err := binary.Read(r, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("sched: reading checksum: %w", err)
	}
	if got != want {
		return nil, fmt.Errorf("sched: trace checksum mismatch")
	}
	return out, nil
}
