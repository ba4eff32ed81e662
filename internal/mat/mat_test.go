package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *Dense {
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// mulT returns A Bᵀ.
func mulT(a, b *Dense) *Dense {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			out.Set(i, j, dot(a.Row(i), b.Row(j)))
		}
	}
	return out
}

func randSPD(r *rand.Rand, n int) *Dense {
	// A = B Bᵀ + n·I is SPD for random B.
	b := New(n, n)
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}
	a := mulT(b, b)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestCholeskyReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(10)
		a := randSPD(r, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("Cholesky failed on SPD matrix: %v", err)
		}
		llt := mulT(l, l)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d := math.Abs(llt.At(i, j) - a.At(i, j)); d > 1e-9 {
					t.Fatalf("LLᵀ differs from A at (%d,%d) by %v", i, j, d)
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("Cholesky accepted an indefinite matrix")
	}
	if _, err := Cholesky(New(2, 3)); err == nil {
		t.Fatal("Cholesky accepted a non-square matrix")
	}
}

func TestSolveSPDQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := randSPD(r, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = r.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		return maxAbsDiff(got, want) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSolveSPDKnown(t *testing.T) {
	a := fromRows([][]float64{{4, 2}, {2, 3}})
	x, err := SolveSPD(a, []float64{10, 9})
	if err != nil {
		t.Fatal(err)
	}
	// Solution of [[4,2],[2,3]] x = [10,9]: x = [1.5, 2].
	if maxAbsDiff(x, []float64{1.5, 2}) > 1e-12 {
		t.Errorf("x = %v, want [1.5 2]", x)
	}
}

func TestMulVecTMulVec(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y := a.MulVec([]float64{1, 1, 1})
	if maxAbsDiff(y, []float64{6, 15}) > 0 {
		t.Errorf("MulVec = %v", y)
	}
	z := a.TMulVec([]float64{1, 1})
	if maxAbsDiff(z, []float64{5, 7, 9}) > 0 {
		t.Errorf("TMulVec = %v", z)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares data")
	}
}

func TestCholeskyJitterRecoversNearSingular(t *testing.T) {
	// A singular matrix with a consistent RHS: the jittered factorization
	// still produces a usable solve.
	a := fromRows([][]float64{{2, 4}, {4, 8}})
	l, err := CholeskyJitter(a)
	if err != nil {
		t.Fatal(err)
	}
	x := CholSolve(l, []float64{2, 4})
	// Verify A x ≈ b.
	b := a.MulVec(x)
	if maxAbsDiff(b, []float64{2, 4}) > 1e-5 {
		t.Errorf("A·x = %v, want [2 4]", b)
	}
	// SPD input factors without jitter and matches Cholesky.
	spd := fromRows([][]float64{{4, 2}, {2, 3}})
	l1, err := CholeskyJitter(spd)
	if err != nil {
		t.Fatal(err)
	}
	l2, _ := Cholesky(spd)
	if maxAbsDiff(l1.Data, l2.Data) > 0 {
		t.Error("CholeskyJitter altered an SPD factorization")
	}
}
