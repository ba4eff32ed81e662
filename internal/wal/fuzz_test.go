package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"path/filepath"
	"testing"

	"wqrtq/internal/storage"
	"wqrtq/internal/vec"
)

// reseal walks the frames of a segment image by their length fields and
// rewrites the header and payload checksums, so mutated bytes reach the
// payload decoder and the LSN checks instead of dying at the first CRC.
func reseal(data []byte) {
	if len(data) < headerSize {
		return
	}
	binary.LittleEndian.PutUint32(data[len(magic)+8:], crc32.Checksum(data[:len(magic)+8], castagnoli))
	for off := headerSize; off+frameSize <= len(data); {
		ln := int(binary.LittleEndian.Uint32(data[off:]))
		if ln == 0 || ln > maxPayload || off+frameSize+ln > len(data) {
			return
		}
		binary.LittleEndian.PutUint32(data[off+4:], crc32.Checksum(data[off+frameSize:off+frameSize+ln], castagnoli))
		off += frameSize + ln
	}
}

// FuzzReplay feeds arbitrary bytes to Replay as a segment file. It must
// never panic, fail only with ErrCorrupt, and never deliver data from
// behind a bad checksum: every delivered record, re-encoded, must be
// byte-identical to a correctly checksummed frame at its position in the
// file, the positions must tile the file from the header on, and whatever
// was not delivered must be accounted for as the torn tail.
func FuzzReplay(f *testing.F) {
	seedFS := storage.NewFaultFS()
	name := writeSegment(f, seedFS, "seed", 7, SyncAlways, 9)
	seg, _ := seedFS.Bytes(name)
	f.Add(seg, uint64(7), false)
	f.Add(seg[:len(seg)-5], uint64(7), false) // torn tail
	f.Add(seg[:headerSize-3], uint64(7), false)
	f.Add(seg, uint64(8), false) // wrong base
	flipped := append([]byte(nil), seg...)
	flipped[headerSize+20] ^= 0x10 // mid-file damage, checksum left stale
	f.Add(flipped, uint64(7), false)
	f.Add(flipped, uint64(7), true) // same damage, checksums recomputed

	f.Fuzz(func(t *testing.T, data []byte, base uint64, resealed bool) {
		data = append([]byte(nil), data...)
		if resealed {
			reseal(data)
		}
		fs := storage.NewFaultFS()
		if err := fs.MkdirAll("d"); err != nil {
			t.Fatal(err)
		}
		name := filepath.Join("d", SegmentName(base))
		fh, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}

		off, next, delivered := headerSize, base+1, 0
		res, err := Replay(fs, name, base, func(kind int, lsn, id uint64, p vec.Point) error {
			if lsn != next {
				t.Fatalf("delivered LSN %d, want %d", lsn, next)
			}
			payload := []byte{byte(kind)}
			payload = binary.LittleEndian.AppendUint64(payload, lsn)
			payload = binary.LittleEndian.AppendUint64(payload, id)
			switch kind {
			case KindInsert:
				payload = binary.LittleEndian.AppendUint16(payload, uint16(len(p)))
				for _, c := range p {
					payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(c))
				}
			case KindDelete:
				if p != nil {
					t.Fatalf("delete LSN %d carries a point", lsn)
				}
			default:
				t.Fatalf("delivered unknown kind %d", kind)
			}
			frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
			frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
			frame = append(frame, payload...)
			if off+len(frame) > len(data) || !bytes.Equal(data[off:off+len(frame)], frame) {
				t.Fatalf("record LSN %d is not backed by a checksummed frame at offset %d", lsn, off)
			}
			off += len(frame)
			next++
			delivered++
			return nil
		})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Replay failed with a non-corruption error: %v", err)
			}
			return
		}
		if res.Records != delivered || res.LastLSN != next-1 {
			t.Fatalf("result %+v after %d records ending at LSN %d", res, delivered, next-1)
		}
		// The undelivered rest is the torn tail; a segment whose header
		// never became durable is torn as a whole.
		tornHeader := delivered == 0 && res.TornBytes == int64(len(data))
		if tail := int64(len(data) - off); res.TornBytes != tail && !tornHeader {
			t.Fatalf("torn tail %d bytes, but %d bytes follow the last delivered record", res.TornBytes, tail)
		}
	})
}
