package wal

import (
	"errors"
	"path/filepath"
	"testing"

	"wqrtq/internal/storage"
	"wqrtq/internal/vec"
)

type rec struct {
	kind int
	lsn  uint64
	id   uint64
	p    vec.Point
}

func collect(t *testing.T, fs storage.FS, name string, base uint64) ([]rec, Replayed, error) {
	t.Helper()
	var got []rec
	res, err := Replay(fs, name, base, func(kind int, lsn, id uint64, p vec.Point) error {
		got = append(got, rec{kind, lsn, id, p})
		return nil
	})
	return got, res, err
}

func writeSegment(t testing.TB, fs storage.FS, dir string, base uint64, policy Policy, n int) string {
	t.Helper()
	if err := fs.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, SegmentName(base))
	w, err := Create(fs, dir, name, base, policy)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		lsn := base + uint64(i) + 1
		if i%3 == 2 {
			if err := w.AppendDelete(lsn, uint64(i)); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := w.AppendInsert(lsn, uint64(i), vec.Point{float64(i), 0.5, -1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return name
}

func TestRoundTrip(t *testing.T) {
	for _, policy := range []Policy{SyncAlways, SyncInterval, SyncOff} {
		fs := storage.NewFaultFS()
		name := writeSegment(t, fs, "d", 10, policy, 9)
		got, res, err := collect(t, fs, name, 10)
		if err != nil {
			t.Fatalf("policy %d: %v", policy, err)
		}
		if res.Records != 9 || res.LastLSN != 19 || res.TornBytes != 0 {
			t.Fatalf("policy %d: res = %+v", policy, res)
		}
		for i, r := range got {
			wantKind := KindInsert
			if i%3 == 2 {
				wantKind = KindDelete
			}
			if r.kind != wantKind || r.lsn != 10+uint64(i)+1 || r.id != uint64(i) {
				t.Fatalf("record %d = %+v", i, r)
			}
			if wantKind == KindInsert && (len(r.p) != 3 || r.p[0] != float64(i)) {
				t.Fatalf("record %d point = %v", i, r.p)
			}
			if wantKind == KindDelete && r.p != nil {
				t.Fatalf("delete record carries a point: %+v", r)
			}
		}
	}
}

func TestSyncPolicyCounters(t *testing.T) {
	fs := storage.NewFaultFS()
	fs.MkdirAll("d")
	w, err := Create(fs, "d", "d/"+SegmentName(0), 0, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendInsert(1, 0, vec.Point{1})
	w.AppendInsert(2, 1, vec.Point{2})
	if a, s := w.Counters(); a != 2 || s != 3 { // create sync + 2 append syncs
		t.Fatalf("always: appends=%d syncs=%d", a, s)
	}
	w.Close()

	w, err = Create(fs, "d", "d/"+SegmentName(10), 10, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendInsert(11, 0, vec.Point{1})
	if a, s := w.Counters(); a != 1 || s != 1 { // only the create sync
		t.Fatalf("off: appends=%d syncs=%d", a, s)
	}
	w.Close()
}

func TestTornTailDropped(t *testing.T) {
	fs := storage.NewFaultFS()
	name := writeSegment(t, fs, "d", 0, SyncAlways, 5)
	data, _ := fs.Bytes(name)
	// Chop the last record mid-frame.
	f, _ := fs.Create(name)
	f.Write(data[:len(data)-7])
	f.Close()

	got, res, err := collect(t, fs, name, 0)
	if err != nil {
		t.Fatalf("torn tail must not be fatal: %v", err)
	}
	if len(got) != 4 || res.Records != 4 || res.LastLSN != 4 || res.TornBytes == 0 {
		t.Fatalf("res = %+v, records = %d", res, len(got))
	}
}

func TestMidFileCorruptionDetected(t *testing.T) {
	fs := storage.NewFaultFS()
	name := writeSegment(t, fs, "d", 0, SyncAlways, 6)
	// Flip a bit inside the middle of the file (record region, not tail).
	sz, _ := fs.Size(name)
	if err := fs.FlipBit(name, sz*8/2); err != nil {
		t.Fatal(err)
	}
	_, _, err := collect(t, fs, name, 0)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestHeaderBaseMismatch(t *testing.T) {
	fs := storage.NewFaultFS()
	name := writeSegment(t, fs, "d", 7, SyncAlways, 2)
	_, _, err := collect(t, fs, name, 8)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestTornHeaderIsEmptySegment(t *testing.T) {
	fs := storage.NewFaultFS()
	fs.MkdirAll("d")
	f, _ := fs.Create("d/" + SegmentName(3))
	f.Write([]byte("WQWA")) // header torn mid-write
	f.Close()
	got, res, err := collect(t, fs, "d/"+SegmentName(3), 3)
	if err != nil || len(got) != 0 || res.LastLSN != 3 || res.TornBytes != 4 {
		t.Fatalf("got %d records, res %+v, err %v", len(got), res, err)
	}
}

func TestLSNGapDetected(t *testing.T) {
	fs := storage.NewFaultFS()
	fs.MkdirAll("d")
	name := "d/" + SegmentName(0)
	w, err := Create(fs, "d", name, 0, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendInsert(1, 0, vec.Point{1})
	w.AppendInsert(3, 1, vec.Point{2}) // gap: 2 missing
	w.Close()
	_, _, err = collect(t, fs, name, 0)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestWriterPoisonedAfterError(t *testing.T) {
	fs := storage.NewFaultFS()
	fs.MkdirAll("d")
	name := "d/" + SegmentName(0)
	w, err := Create(fs, "d", name, 0, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendInsert(1, 0, vec.Point{1}); err != nil {
		t.Fatal(err)
	}
	fs.SetCrashAt(1)
	if err := w.AppendInsert(2, 1, vec.Point{2}); !errors.Is(err, storage.ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	// Poisoned: even though the FS would now accept writes again after
	// Reboot, this writer must keep failing.
	if err := w.AppendInsert(3, 2, vec.Point{3}); !errors.Is(err, storage.ErrCrashed) {
		t.Fatalf("post-poison err = %v, want sticky ErrCrashed", err)
	}
}

func TestSegmentNames(t *testing.T) {
	name := SegmentName(0xabc)
	base, ok := ParseSegmentName(name)
	if !ok || base != 0xabc {
		t.Fatalf("ParseSegmentName(%q) = %d, %v", name, base, ok)
	}
	for _, bad := range []string{"wal-xyz.wal", "snap-0000000000000abc.snap", "wal-abc.wal", ""} {
		if _, ok := ParseSegmentName(bad); ok {
			t.Fatalf("ParseSegmentName(%q) accepted", bad)
		}
	}
}

func TestPolicyFromString(t *testing.T) {
	for s, want := range map[string]Policy{"": SyncAlways, "always": SyncAlways, "interval": SyncInterval, "off": SyncOff} { //wqrtq:unordered each case independent
		got, err := PolicyFromString(s)
		if err != nil || got != want {
			t.Fatalf("PolicyFromString(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := PolicyFromString("sometimes"); err == nil {
		t.Fatal("want error for unknown policy")
	}
}
