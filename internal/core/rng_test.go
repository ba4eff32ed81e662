package core

import "testing"

// TestNewRandStream pins the first draws of the sampling stream at three
// seeds, so a change of generator, of how a seed enters it, or of the
// Source64 adapter shows up here before it moves a refinement answer. It
// also checks that a pooled stream, reseeded, draws exactly what a fresh
// NewRand at that seed does.
func TestNewRandStream(t *testing.T) {
	for _, c := range []struct {
		seed int64
		f    float64
		n    int
		e    float64
	}{
		{1, 0.11448786518979456, 138, 0.010858093740476457},
		{2, 0.6439461476461021, 523, 2.61248747447663},
		{1 << 40, 0.7106023003428529, 252, 1.9783750819130126},
	} {
		r := NewRand(c.seed)
		if f, n, e := r.Float64(), r.Intn(1000), r.ExpFloat64(); f != c.f || n != c.n || e != c.e {
			t.Errorf("seed %d: first draws Float64 %v, Intn(1000) %d, ExpFloat64 %v; want %v, %d, %v", c.seed, f, n, e, c.f, c.n, c.e)
		}
	}

	for _, seed := range []int64{1, 2, 1 << 40, -7} {
		pooled := getRng(seed + 1)
		for range 37 {
			pooled.Uint64() // leave it mid-stream
		}
		putRng(pooled)
		pooled = getRng(seed)
		fresh := NewRand(seed)
		for i := range 200 {
			var a, b float64
			switch i % 3 {
			case 0:
				a, b = pooled.Float64(), fresh.Float64()
			case 1:
				a, b = float64(pooled.Intn(1+i)), float64(fresh.Intn(1+i))
			default:
				a, b = pooled.ExpFloat64(), fresh.ExpFloat64()
			}
			if a != b {
				t.Fatalf("seed %d: draw %d of a reseeded pooled stream is %v, a fresh one's %v", seed, i, a, b)
			}
		}
		putRng(pooled)
	}
}
