package pagestore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"wqrtq/internal/storage"
	"wqrtq/internal/vec"
)

// layout locates the sections of a snapshot image from its header fields
// alone — an independent reading of the format comment, not Read's code.
// ok is false when the image is too short or the declared sections do not
// tile it exactly.
func layout(data []byte) (ptsOff, pagesOff, pageBytes, pages int, ok bool) {
	if len(data) < headerSize {
		return 0, 0, 0, 0, false
	}
	h := data[len(magic):]
	dim := int64(binary.LittleEndian.Uint32(h[4:]))
	pb := int64(binary.LittleEndian.Uint32(h[8:]))
	numIDs := binary.LittleEndian.Uint64(h[20:])
	nodes := binary.LittleEndian.Uint64(h[36:])
	const limit = 1 << 30 // far beyond any image the fuzzer can hold
	if dim <= 0 || dim > 1<<10 || pb < 16 || numIDs > limit || nodes > limit {
		return 0, 0, 0, 0, false
	}
	po := int64(headerSize) + int64(numIDs)*(1+8*dim)
	if po+int64(nodes)*pb != int64(len(data)) {
		return 0, 0, 0, 0, false
	}
	return headerSize, int(po), int(pb), int(nodes), true
}

// reseal recomputes every checksum of a snapshot image in place (pages
// first, then points, then the header that covers the points checksum), so
// mutated bytes reach the structural checks behind the CRCs.
func reseal(data []byte) {
	ptsOff, pagesOff, pb, pages, ok := layout(data)
	if !ok {
		return
	}
	for pg := 0; pg < pages; pg++ {
		page := data[pagesOff+pg*pb:][:pb]
		binary.LittleEndian.PutUint32(page, crc32.Checksum(page[4:], castagnoli))
	}
	binary.LittleEndian.PutUint32(data[headerSize-8:], crc32.Checksum(data[ptsOff:pagesOff], castagnoli))
	binary.LittleEndian.PutUint32(data[headerSize-4:], crc32.Checksum(data[:headerSize-4], castagnoli))
}

// checksumsHold verifies every checksum of the image independently of Read.
func checksumsHold(data []byte) bool {
	ptsOff, pagesOff, pb, pages, ok := layout(data)
	if !ok {
		return false
	}
	if crc32.Checksum(data[:headerSize-4], castagnoli) != binary.LittleEndian.Uint32(data[headerSize-4:]) ||
		crc32.Checksum(data[ptsOff:pagesOff], castagnoli) != binary.LittleEndian.Uint32(data[headerSize-8:]) {
		return false
	}
	for pg := 0; pg < pages; pg++ {
		page := data[pagesOff+pg*pb:][:pb]
		if crc32.Checksum(page[4:], castagnoli) != binary.LittleEndian.Uint32(page) {
			return false
		}
	}
	return true
}

// FuzzRead feeds arbitrary bytes to Read as a snapshot file. It must never
// panic, fail only with ErrCorrupt (or the version refusal), and never
// return data from behind a bad checksum: an accepted image has every
// checksum intact, and what it decodes to is a structurally valid tree
// that agrees with the returned points table id for id.
func FuzzRead(f *testing.F) {
	seedFS := storage.NewFaultFS()
	tr, pts := buildTree(60, 2, 3)
	writeSnap(f, seedFS, "seed.snap", tr, pts, 41)
	snap, _ := seedFS.Bytes("seed.snap")
	f.Add(snap, false)
	f.Add(snap[:len(snap)-9], false)
	f.Add(snap[:headerSize], false)
	flipped := append([]byte(nil), snap...)
	flipped[headerSize+40] ^= 0x04 // a point coordinate, checksum left stale
	f.Add(flipped, false)
	f.Add(flipped, true) // same damage resealed: the leaf copy now disagrees
	child := append([]byte(nil), snap...)
	_, pagesOff, _, _, _ := layout(child)
	child[pagesOff+16+32] ^= 0x01 // the root's first child pointer
	f.Add(child, true)

	f.Fuzz(func(t *testing.T, data []byte, resealed bool) {
		data = append([]byte(nil), data...)
		if resealed {
			reseal(data)
		}
		fs := storage.NewFaultFS()
		fh, err := fs.Create("x.snap")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}
		s, err := readSnap(fs, "x.snap")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && binary.LittleEndian.Uint32(data[len(magic):]) == version {
				t.Fatalf("Read failed with a non-corruption error: %v", err)
			}
			return
		}
		if !checksumsHold(data) {
			t.Fatal("Read accepted an image with a bad checksum")
		}
		if err := s.Tree.CheckInvariants(); err != nil {
			t.Fatalf("accepted image decodes to an invalid tree: %v", err)
		}
		live := 0
		for _, p := range s.Points {
			if p != nil {
				live++
			}
		}
		if live != s.Tree.Len() {
			t.Fatalf("%d live points, tree holds %d", live, s.Tree.Len())
		}
		seen := 0
		s.Tree.Visit(nil, func(id int32, p vec.Point) {
			seen++
			if int(id) >= len(s.Points) || !vec.Equal(s.Points[id], p) {
				t.Fatalf("tree point %d disagrees with the points table", id)
			}
		})
		if seen != live {
			t.Fatalf("tree reaches %d points, table holds %d live", seen, live)
		}
	})
}
