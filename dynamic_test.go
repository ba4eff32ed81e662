package wqrtq

import (
	"testing"
)

func TestInsertDeleteLifecycle(t *testing.T) {
	ix := paperIndex(t)
	// Insert a dominating computer: it becomes everyone's top choice.
	id, err := ix.Insert([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 {
		t.Errorf("id = %d, want 7", id)
	}
	top, err := ix.TopK([]float64{0.5, 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if top[0].ID != 7 {
		t.Errorf("top-1 = %d, want the inserted point", top[0].ID)
	}
	// Rank of the old query point degrades by one.
	r, _ := ix.Rank([]float64{0.1, 0.9}, paperQ)
	if r != 5 {
		t.Errorf("rank = %d, want 5 after insertion", r)
	}
	// Delete it again: back to the paper's numbers.
	ok, err := ix.Delete(id)
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	r, _ = ix.Rank([]float64{0.1, 0.9}, paperQ)
	if r != 4 {
		t.Errorf("rank = %d, want 4 after deletion", r)
	}
	// Double delete reports false without error.
	ok, err = ix.Delete(id)
	if err != nil || ok {
		t.Errorf("second Delete = %v, %v", ok, err)
	}
	if ix.Point(id) != nil {
		t.Error("deleted point still retrievable")
	}
	if _, err := ix.Delete(99); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := ix.Insert([]float64{-1, 0}); err == nil {
		t.Error("invalid point accepted")
	}
}

func TestSkylineFacade(t *testing.T) {
	ix := paperIndex(t)
	sky := ix.Skyline()
	if len(sky) != 2 || sky[0] != 0 || sky[1] != 2 {
		t.Errorf("skyline = %v, want [0 2]", sky)
	}
	// Deleting a skyline point promotes others.
	if ok, _ := ix.Delete(0); !ok {
		t.Fatal("failed to delete p1")
	}
	sky = ix.Skyline()
	for _, id := range sky {
		if id == 0 {
			t.Error("deleted point still in skyline")
		}
	}
	if len(sky) < 2 {
		t.Errorf("skyline after delete = %v, expected new entrants", sky)
	}
}
