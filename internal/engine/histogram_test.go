package engine

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

var testQuantiles = []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1}

// window returns the observations a histogram fed ds in order still
// counts: those of the newest generation and the one before it.
func window(ds []time.Duration) []time.Duration {
	if len(ds) == 0 {
		return nil
	}
	if g := (len(ds) - 1) / generationSize; g > 0 {
		return ds[(g-1)*generationSize:]
	}
	return ds
}

// countsOf buckets ds directly, with no generations.
func countsOf(ds []time.Duration) Counts {
	var c Counts
	for _, d := range ds {
		c[bucketOf(d)]++
	}
	return c
}

// checkQuantiles asserts that each quantile of c lies in the bucket of the
// exact quantile of ds, the durations c counts.
func checkQuantiles(t *testing.T, what string, c Counts, ds []time.Duration) {
	t.Helper()
	sorted := slices.Sorted(slices.Values(ds))
	for _, q := range testQuantiles {
		got := c.Quantile(q)
		if len(sorted) == 0 {
			if got != 0 {
				t.Fatalf("%s: empty histogram's %v-quantile = %v, want 0", what, q, got)
			}
			continue
		}
		want := sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
		if bucketOf(got) != bucketOf(want) {
			t.Fatalf("%s: %v-quantile of %d durations = %v (bucket %d), exact %v (bucket %d)",
				what, q, len(sorted), got, bucketOf(got), want, bucketOf(want))
		}
	}
}

// FuzzHistogram holds Histogram to the exact sorted-sample quantiles of
// what it still counts, for any list of durations (0, sub-microsecond and
// past the last bucket's bound included), and checks that merging two
// histograms' counts gives the counts of their union.
func FuzzHistogram(f *testing.F) {
	enc := func(ds ...time.Duration) []byte {
		var b []byte
		for _, d := range ds {
			b = binary.LittleEndian.AppendUint64(b, uint64(d)<<6|6) // decodes to d
		}
		return b
	}
	f.Add([]byte{}, uint16(0))
	f.Add(enc(0, 1, 999, 1024, 1791, 1792, 2047, 2048), uint16(3))
	f.Add(enc(time.Millisecond, 20*time.Second, time.Hour, time.Hour+1, 100*time.Hour, math.MaxInt64>>6), uint16(2))
	long := make([]time.Duration, 700)
	for i := range long {
		long[i] = time.Duration(i+1) * time.Microsecond
	}
	f.Add(enc(long...), uint16(300))
	f.Fuzz(func(t *testing.T, raw []byte, cut uint16) {
		// Each 8-byte word w is a duration w>>(w mod 64) with the sign bit
		// cleared, so the list spans every magnitude from 0 to ~292 years.
		ds := make([]time.Duration, 0, len(raw)/8)
		for i := 0; i+8 <= len(raw); i += 8 {
			w := binary.LittleEndian.Uint64(raw[i:])
			ds = append(ds, time.Duration((w>>(w&63))&math.MaxInt64))
		}
		split := int(cut) % (len(ds) + 1)
		a, b := ds[:split], ds[split:]
		var ha, hb, hu Histogram
		for _, d := range a {
			ha.Observe(d)
			hu.Observe(d)
		}
		for _, d := range b {
			hb.Observe(d)
			hu.Observe(d)
		}
		for _, h := range []struct {
			name string
			h    *Histogram
			ds   []time.Duration
		}{{"first part", &ha, a}, {"second part", &hb, b}, {"union", &hu, ds}} {
			c := h.h.Counts()
			if c != countsOf(window(h.ds)) {
				t.Fatalf("%s: counts differ from the last two generations' durations", h.name)
			}
			checkQuantiles(t, h.name, c, window(h.ds))
		}
		merged, cb := ha.Counts(), hb.Counts()
		merged.Merge(&cb)
		both := append(slices.Clone(window(a)), window(b)...)
		if merged != countsOf(both) {
			t.Fatal("merged counts differ from the counts of the union")
		}
		checkQuantiles(t, "merge", merged, both)
		if len(ds) <= 2*generationSize && merged != hu.Counts() {
			t.Fatal("merged counts differ from one histogram fed both parts")
		}
	})
}

// TestHistogramFollowsShift: once two generations of fast observations
// follow slow ones, the slow ones are forgotten.
func TestHistogramFollowsShift(t *testing.T) {
	var h Histogram
	for range 2 * generationSize {
		h.Observe(20 * time.Second)
	}
	if p50 := h.Counts().Quantile(0.5); bucketOf(p50) != bucketOf(20*time.Second) {
		t.Fatalf("p50 = %v after 512 observations of 20s", p50)
	}
	for range 2 * generationSize {
		h.Observe(time.Millisecond)
	}
	if p50 := h.Counts().Quantile(0.5); p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v after 512 more of 1ms, want <= 2ms", p50)
	}
}

// TestHistogramP50 holds the cached median to its definition: through the
// first generation it is the live window's median after every
// observation, and from then on, at every generation change, the median
// of the two generations just completed; in between it does not move.
func TestHistogramP50(t *testing.T) {
	var h Histogram
	if h.P50() != 0 {
		t.Fatalf("empty histogram's P50 = %v, want 0", h.P50())
	}
	rng := rand.New(rand.NewSource(3))
	var atChange Counts
	for i := range 5 * generationSize {
		if i%generationSize == 0 {
			atChange = h.Counts() // the two generations about to complete
		}
		h.Observe(time.Duration(rng.Int63n(int64(time.Second))))
		switch {
		case i < generationSize:
			if got, want := h.P50(), h.Counts().Quantile(0.5); got != want {
				t.Fatalf("observation %d: P50 = %v, live median %v", i, got, want)
			}
		default:
			if got, want := h.P50(), atChange.Quantile(0.5); got != want {
				t.Fatalf("observation %d: P50 = %v, median at the last change %v", i, got, want)
			}
		}
	}
}

// TestHistogramConcurrentObserveQuantile hammers Observe from several
// goroutines while others read quantiles: every read is 0 (nothing yet)
// or inside the buckets of the observed range.
func TestHistogramConcurrentObserveQuantile(t *testing.T) {
	var h Histogram
	lo, hi := bucketOf(time.Millisecond), bucketOf(2*time.Millisecond)
	inRange := func(d time.Duration) bool { return bucketOf(d) >= lo && bucketOf(d) <= hi }
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := range 4 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := range 3000 {
				h.Observe(time.Millisecond + time.Duration((g*3000+i)%1000)*time.Microsecond)
			}
		}()
	}
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, q := range testQuantiles {
					if d := h.Counts().Quantile(q); d != 0 && !inRange(d) {
						t.Errorf("%v-quantile = %v during the hammer, outside [1ms, 2ms]'s buckets", q, d)
						return
					}
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for _, q := range testQuantiles {
		if d := h.Counts().Quantile(q); !inRange(d) {
			t.Fatalf("%v-quantile = %v after the hammer, outside [1ms, 2ms]'s buckets", q, d)
		}
	}
}

// TestHistogramObserveAllocsPerOp pins Observe, which every request pays,
// at zero allocations.
func TestHistogramObserveAllocsPerOp(t *testing.T) {
	var h Histogram
	d := time.Duration(0)
	if n := testing.AllocsPerRun(2000, func() {
		d += 997 * time.Microsecond
		h.Observe(d)
	}); n != 0 {
		t.Fatalf("Observe allocates %v times per call, want 0", n)
	}
}
