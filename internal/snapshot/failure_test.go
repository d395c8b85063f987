package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"strconv"
	"strings"
	"testing"

	"grape6/internal/model"
	"grape6/internal/xrand"
)

// validStream serialises a small system and returns the bytes.
func validStream(t testing.TB) []byte {
	t.Helper()
	sys := model.Plummer(8, xrand.New(7))
	var buf bytes.Buffer
	if err := Write(&buf, Header{N: 8, Time: 0.25, Eps: 1.0 / 64, Step: 99}, sys); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTruncationSweep reads every proper prefix of a valid stream. Each
// must fail with a clean error — never a panic, never a silent success —
// whether the cut lands in the magic, the version, the header, a
// particle record or the checksum trailer.
func TestTruncationSweep(t *testing.T) {
	data := validStream(t)
	for n := 0; n < len(data); n++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Read panicked on %d-byte prefix: %v", n, r)
				}
			}()
			if _, _, err := Read(bytes.NewReader(data[:n])); err == nil {
				t.Errorf("Read accepted truncated stream of %d/%d bytes", n, len(data))
			}
		}()
	}
	// Sanity: the untruncated stream still reads.
	if _, _, err := Read(bytes.NewReader(data)); err != nil {
		t.Fatalf("full stream rejected: %v", err)
	}
}

// TestCorruptedChecksum flips the final byte — inside the CRC-32
// trailer, so the payload is intact but the recorded checksum is wrong.
func TestCorruptedChecksum(t *testing.T) {
	data := validStream(t)
	data[len(data)-1] ^= 0x01
	_, _, err := Read(bytes.NewReader(data))
	if err == nil {
		t.Fatal("Read accepted stream with corrupted checksum trailer")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupted trailer reported as %q, want a checksum error", err)
	}
}

// TestWrongVersion patches the version field (offset 4, after the
// 4-byte magic) to an unsupported value. Read must identify the version
// as the problem rather than fail later with a confusing record or
// checksum error.
func TestWrongVersion(t *testing.T) {
	data := validStream(t)
	binary.LittleEndian.PutUint32(data[4:8], Version+41)
	_, _, err := Read(bytes.NewReader(data))
	if err == nil {
		t.Fatal("Read accepted unsupported version")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Errorf("wrong version reported as %q, want a version error", err)
	}
}

// headerOnly is the 40 bytes a snapshot stream opens with — magic,
// version and a header claiming n particles — and nothing after them.
func headerOnly(t testing.TB, n int64) []byte {
	data := validStream(t)[:40]
	binary.LittleEndian.PutUint64(data[8:16], uint64(n))
	return data
}

// TestHugeHeaderN patches the header's particle count to values the
// stream does not hold. 2⁴⁰ is over the format's limit; 2³⁰ and 2³¹ are
// under it, and Read used to allocate the whole system for them before
// reading a record — 17 GB for 2³¹, which killed the process. Each must
// now fail where the records run out, whether the header is followed by
// the eight real records or by nothing at all.
func TestHugeHeaderN(t *testing.T) {
	for _, n := range []int64{1 << 30, 1 << 31, 1 << 40} {
		data := validStream(t)
		binary.LittleEndian.PutUint64(data[8:16], uint64(n))
		for _, stream := range [][]byte{data, headerOnly(t, n)} {
			if _, _, err := Read(bytes.NewReader(stream)); err == nil {
				t.Errorf("Read accepted a %d-byte stream whose header claims %d particles", len(stream), n)
			}
		}
	}
	if _, _, err := ReadLimited(bytes.NewReader(validStream(t)), 7); err == nil || !strings.Contains(err.Error(), "limit 7") {
		t.Errorf("ReadLimited(7) on an 8-particle stream: got %v, want the limit error", err)
	}
}

// TestRepeatedIDs: a stream whose particles 5 and 6 share an id reads
// back as an error, not as a system every id-indexed consumer would
// mis-load. Write refuses to make such a stream, so the test patches
// particle 5's id in a valid one and recomputes the CRC-32 trailer; the
// result is the fuzz corpus entry repeated_id.
func TestRepeatedIDs(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Header{N: 64, Eps: 1.0 / 64}, model.Plummer(64, xrand.New(5))); err != nil {
		t.Fatal(err)
	}
	dup := buf.Bytes()
	const header, record = 40, 184 // bytes before the records; one record
	copy(dup[header+5*record:header+5*record+8], dup[header+6*record:])
	binary.LittleEndian.PutUint32(dup[len(dup)-4:], crc32.ChecksumIEEE(dup[:len(dup)-4]))
	corpus, err := os.ReadFile("testdata/fuzz/FuzzSnapshotRead/repeated_id")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(corpus)), "\n")
	want, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")"))
	if err != nil || want != string(dup) {
		t.Errorf("patched stream is not the corpus entry repeated_id (%v)", err)
	}
	if _, _, err := Read(bytes.NewReader(dup)); err == nil || !strings.Contains(err.Error(), "repeated particle id") {
		t.Errorf("Read of a stream with a repeated id: got %v, want the repeated-id error", err)
	}
}

// FuzzSnapshotRead feeds Read arbitrary bytes. It must return an error or
// a system, never panic or exhaust memory, and a system it accepts must
// encode back to the bytes it was read from: Read accepts exactly what
// Write writes.
func FuzzSnapshotRead(f *testing.F) {
	f.Add(validStream(f))
	f.Add(headerOnly(f, 1<<31))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, sys, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, h, sys); err != nil {
			t.Fatalf("Write refuses a system Read accepted: %v", err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Errorf("accepted snapshot re-encodes to %x, read from %x", buf.Bytes(), data)
		}
	})
}
