// Package snapshot implements the binary checkpoint format used by the
// production runs ("The whole simulation, including file operations" —
// Section 5 accounts file I/O as part of the wall clock). The format is a
// fixed little-endian layout with a magic header, a version byte and a
// CRC-32 trailer, so that corrupted or truncated checkpoints are detected
// on restore.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"grape6/internal/nbody"
	"grape6/internal/vec"
)

// Magic identifies a GRAPE-6 reproduction snapshot stream.
const Magic = 0x47525036 // "GRP6"

// Version is the current format version.
const Version = 1

// Header carries run metadata stored with every snapshot.
type Header struct {
	N    int64
	Time float64 // system time of the snapshot
	Eps  float64 // softening used by the run
	Step int64   // cumulative individual steps at save time
}

// Write serialises the header and system to w.
func Write(w io.Writer, h Header, sys *nbody.System) error {
	if int(h.N) != sys.N {
		return fmt.Errorf("snapshot: header N=%d but system has %d", h.N, sys.N)
	}
	if err := sys.Validate(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)

	if err := binary.Write(mw, binary.LittleEndian, uint32(Magic)); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.LittleEndian, uint32(Version)); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.LittleEndian, h); err != nil {
		return err
	}
	for i := 0; i < sys.N; i++ {
		rec := particleRecord(sys, i)
		if err := binary.Write(mw, binary.LittleEndian, rec); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// record is the on-disk particle layout.
type record struct {
	ID                               int64
	Mass                             float64
	Pos, Vel, Acc, Jerk, Snap, Crack [3]float64
	Pot, Time, Step                  float64
}

func particleRecord(sys *nbody.System, i int) record {
	return record{
		ID:   int64(sys.ID[i]),
		Mass: sys.Mass[i],
		Pos:  v3arr(sys.Pos[i]), Vel: v3arr(sys.Vel[i]),
		Acc: v3arr(sys.Acc[i]), Jerk: v3arr(sys.Jerk[i]),
		Snap: v3arr(sys.Snap[i]), Crack: v3arr(sys.Crack[i]),
		Pot: sys.Pot[i], Time: sys.Time[i], Step: sys.Step[i],
	}
}

func v3arr(v vec.V3) [3]float64 { return [3]float64{v.X, v.Y, v.Z} }
func arrv3(a [3]float64) vec.V3 { return vec.New(a[0], a[1], a[2]) }

// maxPrealloc caps the particle records Read reserves room for before
// reading any of them.
const maxPrealloc = 1 << 8

// Read deserialises a snapshot, verifying magic, version, checksum and
// that the system is valid (nbody.System.Validate: finite coordinates,
// non-negative masses, no repeated id).
func Read(r io.Reader) (Header, *nbody.System, error) { return ReadLimited(r, 1<<31) }

// ReadLimited is Read for a stream that may hold at most maxN particles:
// a header claiming more is an error before any record is read.
func ReadLimited(r io.Reader, maxN int64) (Header, *nbody.System, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)

	var magic, version uint32
	if err := binary.Read(tr, binary.LittleEndian, &magic); err != nil {
		return Header{}, nil, fmt.Errorf("snapshot: reading magic: %w", err)
	}
	if magic != Magic {
		return Header{}, nil, fmt.Errorf("snapshot: bad magic %#x", magic)
	}
	if err := binary.Read(tr, binary.LittleEndian, &version); err != nil {
		return Header{}, nil, err
	}
	if version != Version {
		return Header{}, nil, fmt.Errorf("snapshot: unsupported version %d", version)
	}
	var h Header
	if err := binary.Read(tr, binary.LittleEndian, &h); err != nil {
		return Header{}, nil, err
	}
	if h.N < 0 || h.N > maxN {
		return Header{}, nil, fmt.Errorf("snapshot: implausible N=%d (limit %d)", h.N, maxN)
	}
	if math.IsNaN(h.Time) {
		return Header{}, nil, fmt.Errorf("snapshot: NaN time")
	}

	// The header's count is not trusted for the allocation: records are
	// collected as they arrive, so a short stream claiming 2³¹ particles
	// fails where it ends instead of asking for 17 GB up front.
	recs := make([]record, 0, min(h.N, maxPrealloc))
	for i := int64(0); i < h.N; i++ {
		var rec record
		if err := binary.Read(tr, binary.LittleEndian, &rec); err != nil {
			return Header{}, nil, fmt.Errorf("snapshot: particle %d: %w", i, err)
		}
		recs = append(recs, rec)
	}
	sys := nbody.New(len(recs))
	for i, rec := range recs {
		sys.ID[i] = int(rec.ID)
		sys.Mass[i] = rec.Mass
		sys.Pos[i] = arrv3(rec.Pos)
		sys.Vel[i] = arrv3(rec.Vel)
		sys.Acc[i] = arrv3(rec.Acc)
		sys.Jerk[i] = arrv3(rec.Jerk)
		sys.Snap[i] = arrv3(rec.Snap)
		sys.Crack[i] = arrv3(rec.Crack)
		sys.Pot[i] = rec.Pot
		sys.Time[i] = rec.Time
		sys.Step[i] = rec.Step
	}
	want := crc.Sum32()
	var got uint32
	if err := binary.Read(r, binary.LittleEndian, &got); err != nil {
		return Header{}, nil, fmt.Errorf("snapshot: reading checksum: %w", err)
	}
	if got != want {
		return Header{}, nil, fmt.Errorf("snapshot: checksum mismatch %#x != %#x", got, want)
	}
	// Read accepts exactly what Write writes.
	if err := sys.Validate(); err != nil {
		return Header{}, nil, fmt.Errorf("snapshot: %w", err)
	}
	return h, sys, nil
}
