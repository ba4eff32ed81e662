// Package wal implements the mutation write-ahead log: length-prefixed,
// CRC-framed insert/delete records appended to segment files with a
// configurable fsync policy.
//
// # Framing
//
// A segment file starts with a 20-byte header
//
//	magic "WQWAL001" | base LSN u64 | CRC32C(magic..base) u32
//
// followed by records, each framed as
//
//	payload length u32 | CRC32C(payload) u32 | payload
//
// with payload
//
//	kind u8 | LSN u64 | id u64 | (inserts only) dim u16 | dim × f64 coords
//
// All integers are little-endian; the checksum is CRC-32/Castagnoli. The
// base LSN names the segment (wal-<base>.wal) and every record in it
// carries an LSN strictly greater than base, consecutive without gaps.
//
// # Torn tails versus corruption
//
// Replay distinguishes the two failure classes recovery must treat
// differently. A decode failure at the end of the file with no structurally
// valid, checksummed record anywhere after it is a torn tail — the expected
// residue of a crash mid-append — and is dropped (reported, not fatal). A
// decode failure followed by a later valid record is mid-file corruption:
// bytes that were once durable have changed, so the segment is rejected
// with ErrCorrupt rather than silently resynchronized. The same applies to
// LSN discontinuities. (A bit flip inside the final record of a segment is
// indistinguishable from a torn append and is classified as a torn tail;
// recovery then restores the longest provably-intact prefix, which is the
// strongest guarantee available without a second copy of the data.)
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"time"

	"wqrtq/internal/storage"
	"wqrtq/internal/vec"
)

// Record kinds.
const (
	KindInsert = 1
	KindDelete = 2
)

const (
	magic      = "WQWAL001"
	headerSize = len(magic) + 8 + 4
	frameSize  = 8 // length + payload CRC
	// maxPayload bounds a single record; far beyond any real dimension,
	// tight enough that a corrupted length field cannot trigger a huge
	// allocation.
	maxPayload = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports bytes that were durable but no longer decode — as
// opposed to a torn tail, which replay drops silently. Recovery must
// refuse the segment (or fall back) when it sees this.
var ErrCorrupt = errors.New("wal: corrupt segment")

// Policy selects when appends are made durable.
type Policy int

const (
	// SyncAlways syncs the segment before Append returns: an acknowledged
	// mutation survives any crash.
	SyncAlways Policy = iota
	// SyncInterval leaves syncing to a periodic Sync call; a crash may
	// lose up to one interval of acknowledged mutations.
	SyncInterval
	// SyncOff never syncs except at rotation and Close.
	SyncOff
)

// Writer appends records to one segment file. Methods are safe for
// concurrent use. After any write or sync error the writer is poisoned:
// the file tail may hold a partial frame, so further appends would create
// mid-file corruption; every later call returns the first error.
type Writer struct {
	mu      sync.Mutex
	f       storage.File
	policy  Policy
	bytes   int64
	appends int64
	syncs   int64
	err     error
	buf     []byte
}

// Create creates segment file name with the given base LSN, syncs the file
// and its directory, and returns a Writer positioned after the header.
func Create(fs storage.FS, dir, name string, base uint64, policy Policy) (*Writer, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, base)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, castagnoli))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := fs.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, policy: policy, bytes: int64(headerSize), syncs: 1}, nil
}

// Bytes returns the segment size written so far, including the header.
func (w *Writer) Bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}

// Counters returns the number of successful appends and syncs.
func (w *Writer) Counters() (appends, syncs int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends, w.syncs
}

// AppendInsert logs the insertion of point p as record id with the given
// LSN, honoring the sync policy before returning.
func (w *Writer) AppendInsert(lsn, id uint64, p vec.Point) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.buf = w.buf[:0]
	w.buf = append(w.buf, KindInsert)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, lsn)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, id)
	w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(p)))
	for _, c := range p {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(c))
	}
	return w.appendLocked()
}

// AppendDelete logs the deletion of record id with the given LSN.
func (w *Writer) AppendDelete(lsn, id uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.buf = w.buf[:0]
	w.buf = append(w.buf, KindDelete)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, lsn)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, id)
	return w.appendLocked()
}

func (w *Writer) appendLocked() error {
	frame := make([]byte, 0, frameSize+len(w.buf))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(w.buf)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(w.buf, castagnoli))
	frame = append(frame, w.buf...)
	if _, err := w.f.Write(frame); err != nil {
		w.err = fmt.Errorf("wal: append: %w", err)
		return w.err
	}
	w.bytes += int64(len(frame))
	w.appends++
	if w.policy == SyncAlways {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("wal: sync: %w", err)
			return w.err
		}
		w.syncs++
	}
	return nil
}

// Sync forces the segment durable — the periodic flush under SyncInterval
// and the final flush at rotation and Close.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *Writer) syncLocked() error {
	if w.err != nil {
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("wal: sync: %w", err)
		return w.err
	}
	w.syncs++
	return nil
}

// Close syncs (unless already poisoned) and closes the segment.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	serr := w.syncLocked()
	cerr := w.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Replayed summarizes one segment replay.
type Replayed struct {
	// Records is the number of records delivered to the callback.
	Records int
	// LastLSN is the LSN of the last delivered record (Base if none).
	LastLSN uint64
	// TornBytes is the length of the discarded tail, 0 if the segment
	// ended cleanly. A torn header (file shorter or damaged before the
	// first record boundary) reports the whole file as torn.
	TornBytes int64
}

// Replay reads segment name, verifies the header against wantBase, and
// calls fn for every intact record in order. Inserts pass the decoded
// point; deletes pass nil. Torn tails are dropped and reported in the
// result; anything that implies damage to previously-durable bytes —
// header damage on a non-empty prefix, a bad record followed by a valid
// one, an LSN gap — returns ErrCorrupt.
func Replay(fs storage.FS, name string, wantBase uint64, fn func(kind int, lsn, id uint64, p vec.Point) error) (Replayed, error) {
	var res Replayed
	f, err := fs.Open(name)
	if err != nil {
		return res, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return res, err
	}

	res.LastLSN = wantBase
	if len(data) < headerSize {
		// The segment was created but its header never became fully
		// durable — a torn creation, recoverable only as "empty".
		res.TornBytes = int64(len(data))
		return res, nil
	}
	hdr := data[:headerSize]
	wantCRC := binary.LittleEndian.Uint32(hdr[len(magic)+8:])
	if string(hdr[:len(magic)]) != magic || crc32.Checksum(hdr[:len(magic)+8], castagnoli) != wantCRC {
		if validRecordAfter(data, 1) {
			return res, fmt.Errorf("%w: %s: damaged header with intact records after it", ErrCorrupt, name)
		}
		res.TornBytes = int64(len(data))
		return res, nil
	}
	if base := binary.LittleEndian.Uint64(hdr[len(magic):]); base != wantBase {
		return res, fmt.Errorf("%w: %s: header base LSN %d, want %d", ErrCorrupt, name, base, wantBase)
	}

	off := headerSize
	next := wantBase + 1
	for off < len(data) {
		payload, n := decodeFrame(data[off:])
		if payload == nil {
			if validRecordAfter(data, off+1) {
				return res, fmt.Errorf("%w: %s: undecodable record at offset %d with intact records after it",
					ErrCorrupt, name, off)
			}
			res.TornBytes = int64(len(data) - off)
			return res, nil
		}
		kind, lsn, id, p, derr := decodePayload(payload)
		if derr != nil {
			if validRecordAfter(data, off+1) {
				return res, fmt.Errorf("%w: %s: %v at offset %d with intact records after it", ErrCorrupt, name, derr, off)
			}
			res.TornBytes = int64(len(data) - off)
			return res, nil
		}
		if lsn != next {
			return res, fmt.Errorf("%w: %s: LSN %d at offset %d, want %d", ErrCorrupt, name, lsn, off, next)
		}
		if err := fn(kind, lsn, id, p); err != nil {
			return res, err
		}
		res.Records++
		res.LastLSN = lsn
		next++
		off += n
	}
	return res, nil
}

// decodeFrame parses one frame at the start of b, returning the verified
// payload and total frame length, or (nil, 0) if b does not begin with a
// structurally valid, checksummed frame.
func decodeFrame(b []byte) ([]byte, int) {
	if len(b) < frameSize {
		return nil, 0
	}
	ln := int(binary.LittleEndian.Uint32(b))
	if ln == 0 || ln > maxPayload || len(b) < frameSize+ln {
		return nil, 0
	}
	payload := b[frameSize : frameSize+ln]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0
	}
	return payload, frameSize + ln
}

func decodePayload(p []byte) (kind int, lsn, id uint64, pt vec.Point, err error) {
	if len(p) < 17 {
		return 0, 0, 0, nil, fmt.Errorf("payload %d bytes", len(p))
	}
	kind = int(p[0])
	lsn = binary.LittleEndian.Uint64(p[1:])
	id = binary.LittleEndian.Uint64(p[9:])
	switch kind {
	case KindDelete:
		if len(p) != 17 {
			return 0, 0, 0, nil, fmt.Errorf("delete payload %d bytes", len(p))
		}
		return kind, lsn, id, nil, nil
	case KindInsert:
		if len(p) < 19 {
			return 0, 0, 0, nil, fmt.Errorf("insert payload %d bytes", len(p))
		}
		dim := int(binary.LittleEndian.Uint16(p[17:]))
		if dim == 0 || len(p) != 19+8*dim {
			return 0, 0, 0, nil, fmt.Errorf("insert payload %d bytes for dim %d", len(p), dim)
		}
		pt = make(vec.Point, dim)
		for i := range pt {
			pt[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[19+8*i:]))
		}
		return kind, lsn, id, pt, nil
	default:
		return 0, 0, 0, nil, fmt.Errorf("record kind %d", kind)
	}
}

// validRecordAfter reports whether any offset in [from, len(data)) begins a
// structurally valid, checksummed record whose payload also decodes — the
// scan that separates a torn tail (nothing valid follows the damage) from
// mid-file corruption (durable bytes changed in front of intact ones).
func validRecordAfter(data []byte, from int) bool {
	if from < 0 {
		from = 0
	}
	for off := from; off+frameSize < len(data); off++ {
		if payload, _ := decodeFrame(data[off:]); payload != nil {
			if _, _, _, _, err := decodePayload(payload); err == nil {
				return true
			}
		}
	}
	return false
}

// SegmentName formats the canonical file name for a segment with the given
// base LSN.
func SegmentName(base uint64) string {
	return fmt.Sprintf("wal-%016x.wal", base)
}

// ParseSegmentName extracts the base LSN from a segment file name.
func ParseSegmentName(name string) (uint64, bool) {
	var base uint64
	if _, err := fmt.Sscanf(name, "wal-%016x.wal", &base); err != nil {
		return 0, false
	}
	return base, name == SegmentName(base)
}

// PolicyFromString maps the -fsync flag values to a Policy.
func PolicyFromString(s string) (Policy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
}

// An IntervalDefault for engines that enable SyncInterval without
// configuring a period.
const IntervalDefault = 50 * time.Millisecond
