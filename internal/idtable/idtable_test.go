package idtable

import (
	"fmt"
	"math/rand"
	"testing"

	"wqrtq/internal/vec"
)

func point(v int) vec.Point { return vec.Point{float64(v)} }

// equalFlat compares a table with the plain-slice model of it, through
// every read accessor.
func equalFlat(t *testing.T, name string, tab *Table, want []vec.Point) {
	t.Helper()
	if tab.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", name, tab.Len(), len(want))
	}
	flat := tab.Flat()
	if len(flat) != len(want) {
		t.Fatalf("%s: Flat has %d entries, want %d", name, len(flat), len(want))
	}
	for id, w := range want {
		for _, got := range []vec.Point{tab.Get(id), flat[id]} {
			if (got == nil) != (w == nil) || (w != nil && got[0] != w[0]) {
				t.Fatalf("%s: id %d = %v, want %v", name, id, got, w)
			}
		}
	}
	if tab.Get(-1) != nil || tab.Get(len(want)) != nil {
		t.Fatalf("%s: out-of-range Get returned a point", name)
	}
}

// TestCloneFamilyMatchesSliceModel drives a family of tables — clones of
// clones, each side written after the split, page boundaries crossed —
// against independent slice copies.
func TestCloneFamilyMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n0 := range []int{0, 1, PageSize - 1, PageSize, PageSize + 1, 3*PageSize + 17} {
		init := make([]vec.Point, n0)
		for i := range init {
			init[i] = point(i)
		}
		type pair struct {
			tab   *Table
			model []vec.Point
		}
		fam := []pair{{FromPoints(init), append([]vec.Point(nil), init...)}}
		next := n0
		for step := 0; step < 400; step++ {
			i := rng.Intn(len(fam))
			switch r := rng.Intn(10); {
			case r == 0 && len(fam) < 8:
				fam = append(fam, pair{fam[i].tab.Clone(), append([]vec.Point(nil), fam[i].model...)})
			case r < 6:
				p := point(next)
				next++
				if id := fam[i].tab.Append(p); id != len(fam[i].model) {
					t.Fatalf("Append returned id %d, want %d", id, len(fam[i].model))
				}
				fam[i].model = append(fam[i].model, p)
			case len(fam[i].model) > 0:
				id := rng.Intn(len(fam[i].model))
				fam[i].tab.Clear(id)
				fam[i].model[id] = nil
			}
		}
		for i, f := range fam {
			equalFlat(t, fmt.Sprintf("n0=%d member %d", n0, i), f.tab, f.model)
		}
	}
}

// TestWriteCopiesOnePage pins the cost model: after a clone, a write
// replaces exactly the written page in the writer's directory and leaves
// every other page shared.
func TestWriteCopiesOnePage(t *testing.T) {
	pts := make([]vec.Point, 5*PageSize)
	for i := range pts {
		pts[i] = point(i)
	}
	parent := FromPoints(pts)
	c := parent.Clone()
	c.Clear(2*PageSize + 3)
	c.Clear(2*PageSize + 4) // second write to an owned page: no further copy
	shared := 0
	for i := range parent.pages {
		if parent.pages[i] == c.pages[i] {
			shared++
		}
	}
	if shared != len(parent.pages)-1 || parent.pages[2] == c.pages[2] {
		t.Fatalf("%d of %d pages shared after writing page 2", shared, len(parent.pages))
	}
	if parent.Get(2*PageSize+3) == nil {
		t.Fatal("clone's write reached the parent")
	}
	// The parent is foreign to its old pages too: writing it in place must
	// not reach the clone.
	parent.Clear(7)
	if c.Get(7) == nil {
		t.Fatal("parent's write reached the clone")
	}
}
