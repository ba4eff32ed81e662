package pagestore

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"wqrtq/internal/rtree"
	"wqrtq/internal/storage"
	"wqrtq/internal/vec"
)

func buildTree(n, dim int, seed int64) (*rtree.Tree, []vec.Point) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.Point, n)
	ids := make([]int32, n)
	for i := range pts {
		p := make(vec.Point, dim)
		for j := range p {
			p[j] = rng.Float64() * 100
		}
		pts[i] = p
		ids[i] = int32(i)
	}
	tr := rtree.Bulk(pts, ids)
	// Delete a quarter so the points table has dead ids.
	for i := 0; i < n/4; i++ {
		tr.Delete(pts[i], ids[i])
		pts[i] = nil
	}
	return tr, pts
}

func writeSnap(t testing.TB, fs storage.FS, name string, tr *rtree.Tree, pts []vec.Point, lsn uint64) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, tr, pts, lsn, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func readSnap(fs storage.FS, name string) (*Snapshot, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// dump renders tree structure independent of node identity.
func dump(n *rtree.Node) string {
	s := fmt.Sprintf("[leaf=%v count=%d", n.IsLeaf(), n.Count())
	for i := 0; i < n.NumEntries(); i++ {
		r := n.EntryRect(i)
		s += fmt.Sprintf(" {%v %v", r.Min, r.Max)
		if n.IsLeaf() {
			s += fmt.Sprintf(" id=%d}", n.PointID(i))
		} else {
			s += " " + dump(n.Child(i)) + "}"
		}
	}
	return s + "]"
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct{ n, dim int }{{1, 2}, {8, 3}, {200, 2}, {500, 5}} {
		fs := storage.NewFaultFS()
		fs.MkdirAll("d")
		tr, pts := buildTree(tc.n, tc.dim, int64(tc.n))
		writeSnap(t, fs, "d/s", tr, pts, 42)

		snap, err := readSnap(fs, "d/s")
		if err != nil {
			t.Fatalf("n=%d dim=%d: %v", tc.n, tc.dim, err)
		}
		if snap.LastLSN != 42 {
			t.Fatalf("LastLSN = %d", snap.LastLSN)
		}
		if err := snap.Tree.CheckInvariants(); err != nil {
			t.Fatalf("n=%d dim=%d: invariants: %v", tc.n, tc.dim, err)
		}
		if got, want := dump(snap.Tree.Root()), dump(tr.Root()); got != want {
			t.Fatalf("n=%d dim=%d: structure differs\n got %s\nwant %s", tc.n, tc.dim, got, want)
		}
		if len(snap.Points) != len(pts) {
			t.Fatalf("points len = %d, want %d", len(snap.Points), len(pts))
		}
		for i, p := range pts {
			q := snap.Points[i]
			if (p == nil) != (q == nil) {
				t.Fatalf("point %d liveness differs", i)
			}
			if p != nil && !vec.Equal(p, q) {
				t.Fatalf("point %d = %v, want %v", i, q, p)
			}
		}
	}
}

func TestEveryBitFlipDetected(t *testing.T) {
	// Flip a sample of bits across the whole file; every single one must
	// turn Read into an error — never a silently different snapshot.
	fs := storage.NewFaultFS()
	fs.MkdirAll("d")
	tr, pts := buildTree(60, 2, 9)
	writeSnap(t, fs, "d/s", tr, pts, 7)
	sz, _ := fs.Size("d/s")
	bits := sz * 8
	rng := rand.New(rand.NewSource(1))
	flips := []int64{0, 1, bits - 1, bits / 2}
	for i := 0; i < 300; i++ {
		flips = append(flips, rng.Int63n(bits))
	}
	for _, bit := range flips {
		if err := fs.FlipBit("d/s", bit); err != nil {
			t.Fatal(err)
		}
		if _, err := readSnap(fs, "d/s"); err == nil {
			t.Fatalf("bit %d: flip went undetected", bit)
		}
		// Flip back and confirm the snapshot reads clean again.
		if err := fs.FlipBit("d/s", bit); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := readSnap(fs, "d/s"); err != nil {
		t.Fatalf("restored snapshot should read clean: %v", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	fs := storage.NewFaultFS()
	fs.MkdirAll("d")
	tr, pts := buildTree(80, 3, 4)
	writeSnap(t, fs, "d/s", tr, pts, 1)
	data, _ := fs.Bytes("d/s")
	for _, keep := range []int{0, 1, headerSize - 1, headerSize, len(data) / 2, len(data) - 1} {
		f, _ := fs.Create("d/cut")
		f.Write(data[:keep])
		f.Close()
		if _, err := readSnap(fs, "d/cut"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("keep=%d: err = %v, want ErrCorrupt", keep, err)
		}
	}
}

func TestAbortCallback(t *testing.T) {
	fs := storage.NewFaultFS()
	fs.MkdirAll("d")
	tr, pts := buildTree(40, 2, 2)
	f, _ := fs.Create("d/s")
	calls := 0
	err := Write(f, tr, pts, 0, func() bool { calls++; return true })
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if calls == 0 {
		t.Fatal("abort callback never polled")
	}
}

func TestSnapshotNames(t *testing.T) {
	name := SnapshotName(99)
	lsn, ok := ParseSnapshotName(name)
	if !ok || lsn != 99 {
		t.Fatalf("ParseSnapshotName(%q) = %d, %v", name, lsn, ok)
	}
	for _, bad := range []string{"snap-zz.snap", "wal-0000000000000063.wal", "snap.snap", ""} {
		if _, ok := ParseSnapshotName(bad); ok {
			t.Fatalf("ParseSnapshotName(%q) accepted", bad)
		}
	}
}

func TestOSFSRoundTrip(t *testing.T) {
	fs := storage.OS()
	dir := t.TempDir()
	tr, pts := buildTree(120, 4, 11)
	writeSnap(t, fs, dir+"/s.snap", tr, pts, 5)
	snap, err := readSnap(fs, dir+"/s.snap")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dump(snap.Tree.Root()), dump(tr.Root()); got != want {
		t.Fatal("structure differs over OS filesystem")
	}
}
