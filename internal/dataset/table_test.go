package dataset

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// nbaStyleCSV has a header row, label columns, one ragged line and one row
// where a usually-numeric column goes non-numeric (which drops the whole
// column, not the row).
const nbaStyleCSV = `player,team,gp,pts,reb,ast
"Jordan, M",CHI,82,32.5,6.6,8.0
Pippen,CHI,82,21.0,7.7,7.0
Grant,CHI,80,12.8,8.5
Kukoc,CHI,75,18.5,7.0,5.3
Rodman,DET,77,DNP,18.7,2.5
`

// unusableTables are inputs with nothing to load.
var unusableTables = []string{
	"",
	"a,b,c\nx,y,z\n",
	"name\nalice\nbob\n",
}

func TestReadTableNBAStyle(t *testing.T) {
	ds, info, err := ReadTable(strings.NewReader(nbaStyleCSV))
	if err != nil {
		t.Fatal(err)
	}
	// "Grant" is ragged (5 fields) and dropped; "DNP" kills the pts column;
	// player/team are label columns. Kept: gp, reb, ast over 4 rows.
	if info.RowsRead != 4 || info.RowsDropped != 2 {
		t.Fatalf("info = %+v", info)
	}
	wantCols := []int{2, 4, 5}
	if len(info.Columns) != len(wantCols) {
		t.Fatalf("columns = %v, want %v", info.Columns, wantCols)
	}
	for i, c := range wantCols {
		if info.Columns[i] != c {
			t.Fatalf("columns = %v, want %v", info.Columns, wantCols)
		}
	}
	if ds.Dim != 3 || len(ds.Points) != 4 {
		t.Fatalf("dataset %d×%d", len(ds.Points), ds.Dim)
	}
	if got := ds.Points[0]; got[0] != 82 || got[1] != 6.6 || got[2] != 8.0 {
		t.Fatalf("first point %v", got)
	}
}

func TestReadTablePureNumeric(t *testing.T) {
	// A strict WriteCSV-style file loads unchanged.
	ds0 := Independent(30, 4, 3)
	var sb strings.Builder
	if err := ds0.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	ds, info, err := ReadTable(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if info.RowsRead != 30 || info.RowsDropped != 0 || ds.Dim != 4 {
		t.Fatalf("info = %+v, dim = %d", info, ds.Dim)
	}
	for i, p := range ds.Points {
		for j := range p {
			if p[j] != ds0.Points[i][j] {
				t.Fatalf("point %d differs: %v vs %v", i, p, ds0.Points[i])
			}
		}
	}
}

func TestReadTableRejectsUnusable(t *testing.T) {
	for _, bad := range unusableTables {
		if _, _, err := ReadTable(strings.NewReader(bad)); err == nil {
			t.Fatalf("ReadTable(%q) succeeded", bad)
		}
	}
}

// FuzzReadTable holds ReadTable, the parser of untrusted CSV bytes behind
// `wqrtq -data`, to its contract on arbitrary input: it never panics, and
// on success it returns one point per kept row, each with one finite
// coordinate per kept column, and the kept columns in strictly increasing
// original order.
func FuzzReadTable(f *testing.F) {
	nba, err := os.ReadFile(filepath.Join("..", "..", "testdata", "nba_style.csv"))
	if err != nil {
		f.Fatal(err)
	}
	var pure strings.Builder
	if err := Independent(30, 4, 3).WriteCSV(&pure); err != nil {
		f.Fatal(err)
	}
	for _, seed := range append([]string{string(nba), nbaStyleCSV, pure.String()}, unusableTables...) {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, info, err := ReadTable(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(ds.Points) != info.RowsRead || ds.Dim != len(info.Columns) {
			t.Fatalf("%d points of dimension %d, info %+v", len(ds.Points), ds.Dim, info)
		}
		for i, p := range ds.Points {
			if len(p) != len(info.Columns) {
				t.Fatalf("point %d has %d coordinates, want %d", i, len(p), len(info.Columns))
			}
			for j, v := range p {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("point %d coordinate %d is %v", i, j, v)
				}
			}
		}
		for j := 1; j < len(info.Columns); j++ {
			if info.Columns[j] <= info.Columns[j-1] {
				t.Fatalf("columns %v not strictly increasing", info.Columns)
			}
		}
	})
}
