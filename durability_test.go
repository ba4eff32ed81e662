package wqrtq

// Crash-recovery differential suite for the durability layer. The common
// shape: build a deterministic mutation script together with a chain of
// never-persisted oracle snapshots (one per LSN), run the script through a
// durable engine on the fault-injection filesystem, crash/corrupt/reboot,
// recover, and require the recovered index to be bit-identical — across
// TopK, Rank, ReverseTopK, Explain and the WhyNot penalties — to the
// oracle at SOME acknowledged LSN, or recovery to fail loudly with
// ErrCorruptStore. Never silently wrong.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"wqrtq/internal/dataset"
	"wqrtq/internal/sample"
	"wqrtq/internal/storage"
)

// durCfg is the base engine config for a durable engine over fs. Explicit
// checkpoints only (threshold disabled) so operation sequences are
// deterministic for the crash-point sweep.
func durCfg(fs storage.FS) EngineConfig {
	return EngineConfig{DataDir: "data", FS: fs, CheckpointBytes: -1}
}

// battery renders a deterministic query workload over ix as a string of
// ids, ranks and Float64bits-rendered scores, so two indexes answer
// bit-identically iff their batteries are string-equal. whyNot adds the
// (more expensive) why-not refinement penalties.
func battery(tb testing.TB, ix *Index, seed int64, whyNot bool) string {
	tb.Helper()
	d := ix.Dim()
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	var lastQ []float64
	var lastW [][]float64
	lastK := 1
	for round := 0; round < 4; round++ {
		w := []float64(sample.RandSimplex(rng, d))
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.Float64() * 0.6
		}
		k := 1 + rng.Intn(8)
		W := make([][]float64, 3)
		for j := range W {
			W[j] = sample.RandSimplex(rng, d)
		}
		lastQ, lastW, lastK = q, W, k

		top, err := ix.TopK(w, k)
		if err != nil {
			tb.Fatalf("battery TopK: %v", err)
		}
		for _, r := range top {
			fmt.Fprintf(&sb, "t%d:%x ", r.ID, math.Float64bits(r.Score))
		}
		rank, err := ix.Rank(w, q)
		if err != nil {
			tb.Fatalf("battery Rank: %v", err)
		}
		fmt.Fprintf(&sb, "r%d ", rank)
		rt, err := ix.ReverseTopK(W, q, k)
		if err != nil {
			tb.Fatalf("battery ReverseTopK: %v", err)
		}
		fmt.Fprintf(&sb, "b%v ", rt)
		ex, err := ix.Explain(q, W)
		if err != nil {
			tb.Fatalf("battery Explain: %v", err)
		}
		for _, res := range ex {
			fmt.Fprintf(&sb, "e%d", len(res))
			for _, r := range res {
				fmt.Fprintf(&sb, ",%d:%x", r.ID, math.Float64bits(r.Score))
			}
			sb.WriteByte(' ')
		}
	}
	if whyNot {
		ans, err := ix.WhyNot(lastQ, lastK, lastW, Options{SampleSize: 32, Seed: 5})
		if err != nil {
			tb.Fatalf("battery WhyNot: %v", err)
		}
		fmt.Fprintf(&sb, "wn%v|%v|%x|%x:%d|%x:%d", ans.Result, ans.Missing,
			math.Float64bits(ans.ModifiedQuery.Penalty),
			math.Float64bits(ans.ModifiedPreferences.Penalty), ans.ModifiedPreferences.K,
			math.Float64bits(ans.ModifiedAll.Penalty), ans.ModifiedAll.K)
	}
	return sb.String()
}

// mutOp is one scripted mutation; id is the expected assigned id for an
// insert (ids are deterministic: always len(points)) or the victim for a
// delete.
type mutOp struct {
	insert bool
	p      []float64
	id     int
}

// buildScript generates a deterministic mutation script over a base dataset
// and the oracle snapshot chain: oracles[i] is the never-persisted index
// state after the first i mutations (oracles[0] = the seed).
func buildScript(tb testing.TB, pts [][]float64, nMut int, seed int64) ([]mutOp, []*Index) {
	tb.Helper()
	cur, err := NewIndex(pts)
	if err != nil {
		tb.Fatal(err)
	}
	oracles := []*Index{cur}
	live := make([]int, len(pts))
	for i := range live {
		live[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	d := len(pts[0])
	script := make([]mutOp, 0, nMut)
	for i := 0; i < nMut; i++ {
		next := cur.Clone()
		if len(live) == 0 || rng.Float64() < 0.65 {
			p := make([]float64, d)
			for j := range p {
				p[j] = rng.Float64()
			}
			id, err := next.Insert(p)
			if err != nil {
				tb.Fatal(err)
			}
			script = append(script, mutOp{insert: true, p: p, id: id})
			live = append(live, id)
		} else {
			pick := rng.Intn(len(live))
			id := live[pick]
			ok, err := next.Delete(id)
			if err != nil || !ok {
				tb.Fatalf("script delete %d: %v %v", id, ok, err)
			}
			live = append(live[:pick], live[pick+1:]...)
			script = append(script, mutOp{id: id})
		}
		cur = next
		oracles = append(oracles, cur)
	}
	return script, oracles
}

// applyScript feeds the script to a live engine, requesting an explicit
// checkpoint before the mutations whose index is in checkpointAt. It stops
// at the first failed mutation and returns how many were acknowledged.
func applyScript(tb testing.TB, e *Engine, script []mutOp, checkpointAt map[int]bool) (int, error) {
	tb.Helper()
	for i, op := range script {
		if checkpointAt[i] {
			// Best effort: a checkpoint interrupted by an injected crash
			// is exactly what the sweep wants to exercise.
			_ = e.Checkpoint()
		}
		if op.insert {
			id, _, err := e.Insert(op.p)
			if err != nil {
				return i, err
			}
			if id != op.id {
				tb.Fatalf("mutation %d assigned id %d, script expects %d", i, id, op.id)
			}
		} else {
			ok, _, err := e.Delete(op.id)
			if err != nil {
				return i, err
			}
			if !ok {
				tb.Fatalf("mutation %d: delete %d was a no-op", i, op.id)
			}
		}
	}
	return len(script), nil
}

// dumpFaultDir writes the simulated data directory to $WQRTQ_FAULT_DUMP
// (when set — CI sets it and uploads the directory as an artifact) so a
// failing fault-injection case leaves the exact on-disk state behind for
// inspection.
func dumpFaultDir(tb testing.TB, fs *storage.FaultFS) {
	tb.Helper()
	dir := os.Getenv("WQRTQ_FAULT_DUMP")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		tb.Logf("dump fault dir: %v", err)
		return
	}
	if err := fs.DumpTo(dir); err != nil {
		tb.Logf("dump fault dir: %v", err)
		return
	}
	tb.Logf("simulated data directory dumped to %s", dir)
}

func basePoints(shape string, n, d int, seed int64) [][]float64 {
	var ds *dataset.Dataset
	switch shape {
	case "correlated":
		ds = dataset.Correlated(n, d, seed)
	case "anticorrelated":
		ds = dataset.Anticorrelated(n, d, seed)
	default:
		ds = dataset.Independent(n, d, seed)
	}
	pts := make([][]float64, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = p
	}
	return pts
}

// TestDurableRecoveryDifferential is the headline differential: UN/CO/AC
// shapes × fsync policies, a mutation stream with background checkpoints,
// clean shutdown, recovery — and the recovered engine must answer every
// endpoint bit-identically to a never-persisted oracle.
func TestDurableRecoveryDifferential(t *testing.T) {
	shapes := []string{"independent", "correlated", "anticorrelated"}
	fsyncs := []string{"always", "interval", "off"}
	for si, shape := range shapes {
		t.Run(shape, func(t *testing.T) {
			pts := basePoints(shape, 200, 3, int64(100+si))
			script, oracles := buildScript(t, pts, 100, int64(7*si+1))
			final := oracles[len(oracles)-1]

			fs := storage.NewFaultFS()
			cfg := durCfg(fs)
			cfg.Fsync = fsyncs[(si+1)%len(fsyncs)]
			cfg.FsyncInterval = time.Millisecond
			cfg.CheckpointBytes = 4 << 10 // small: force background checkpoints
			seed, err := NewIndex(pts)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := applyScript(t, e, script, nil); err != nil {
				t.Fatal(err)
			}
			liveBat := battery(t, e.Snapshot(), 42, true)
			if want := battery(t, final, 42, true); liveBat != want {
				t.Fatal("live engine diverged from oracle before any persistence round-trip")
			}
			if err := e.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			// Recover with no seed index.
			re, err := NewEngine(nil, durCfg(fs))
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer re.Close()
			ws := re.Stats().WAL
			if !ws.Enabled || ws.Recoveries != 1 {
				t.Fatalf("WAL stats after recovery: %+v", ws)
			}
			if ws.LastLSN != uint64(len(script)) {
				t.Fatalf("recovered LSN %d, want %d", ws.LastLSN, len(script))
			}
			if got := battery(t, re.Snapshot(), 42, true); got != liveBat {
				t.Fatal("recovered engine is not bit-identical to the oracle")
			}
			if err := re.Snapshot().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurableCrashPointSweep enumerates a crash before every single
// state-changing filesystem operation a durable run performs (every write,
// sync, create, rename, remove and dir-sync — including those of two
// checkpoints and the initial snapshot), reboots with torn tails, and
// requires recovery to land exactly on an oracle state: at least every
// acknowledged mutation (fsync=always), at most the one in-flight mutation
// beyond.
func TestDurableCrashPointSweep(t *testing.T) {
	pts := basePoints("independent", 36, 2, 5)
	nMut := 24
	script, oracles := buildScript(t, pts, nMut, 9)
	ckpt := map[int]bool{8: true, 16: true}

	// Baseline run, no crash: learn the total operation count.
	fs0 := storage.NewFaultFS()
	seed, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(seed, durCfg(fs0))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := applyScript(t, e, script, ckpt); err != nil || n != nMut {
		t.Fatalf("baseline run: %d acked, %v", n, err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	total := fs0.OpCount()
	if total < 2*nMut {
		t.Fatalf("implausibly few fault sites: %d", total)
	}

	for crashAt := 1; crashAt <= total; crashAt++ {
		fs := storage.NewFaultFS()
		fs.SetCrashAt(crashAt)
		acked := 0
		seed, err := NewIndex(pts)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(seed, durCfg(fs))
		if err == nil {
			acked, _ = applyScript(t, e, script, ckpt)
			e.Close() // fails on the dead filesystem; the error is expected
			if !fs.Crashed() {
				t.Fatalf("crashAt=%d: crash never fired (total=%d)", crashAt, total)
			}
		} else if !errors.Is(err, storage.ErrCrashed) {
			t.Fatalf("crashAt=%d: open failed with %v, want ErrCrashed", crashAt, err)
		}

		for _, rebootSeed := range []int64{1, 2} {
			rfs := fs.Reboot(rebootSeed)
			rcfg := durCfg(rfs)
			rseed, err := NewIndex(pts)
			if err != nil {
				t.Fatal(err)
			}
			re, err := NewEngine(rseed, rcfg)
			if err != nil {
				dumpFaultDir(t, rfs)
				t.Fatalf("crashAt=%d seed=%d: recovery failed: %v", crashAt, rebootSeed, err)
			}
			lsn := re.Stats().WAL.LastLSN
			// fsync=always: every acknowledged mutation was synced before
			// its snapshot published, so it must survive; at most the one
			// unacknowledged in-flight record may additionally appear.
			if lsn < uint64(acked) || lsn > uint64(acked)+1 || lsn > uint64(nMut) {
				dumpFaultDir(t, rfs)
				t.Fatalf("crashAt=%d seed=%d: recovered LSN %d, acked %d", crashAt, rebootSeed, lsn, acked)
			}
			if got, want := battery(t, re.Snapshot(), 11, false), battery(t, oracles[lsn], 11, false); got != want {
				dumpFaultDir(t, rfs)
				t.Fatalf("crashAt=%d seed=%d: recovered state differs from oracle at LSN %d", crashAt, rebootSeed, lsn)
			}
			if err := re.Close(); err != nil {
				t.Fatalf("crashAt=%d seed=%d: close after recovery: %v", crashAt, rebootSeed, err)
			}
		}
	}
}

// TestDurableDoubleRestartAfterTornTail pins recover∘recover∘recover =
// recover: crash before every filesystem op of a run, reboot with torn
// tails, then open the directory three times with clean closes between.
// The first open may drop a torn WAL tail; it must also remove it from
// disk, so the later opens — which find the first open's fresh segment
// above the once-torn one — see an intact chain, the same LSN and the same
// answers.
func TestDurableDoubleRestartAfterTornTail(t *testing.T) {
	pts := basePoints("independent", 36, 2, 5)
	script, _ := buildScript(t, pts, 24, 9)

	// Baseline run, no crash: learn the total operation count.
	fs0 := storage.NewFaultFS()
	seed, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(seed, durCfg(fs0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applyScript(t, e, script, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	total := fs0.OpCount()

	tornSeen := 0
	for crashAt := 1; crashAt <= total; crashAt++ {
		fs := storage.NewFaultFS()
		fs.SetCrashAt(crashAt)
		seed, err := NewIndex(pts)
		if err != nil {
			t.Fatal(err)
		}
		if e, err := NewEngine(seed, durCfg(fs)); err == nil {
			applyScript(t, e, script, nil)
			e.Close() // fails on the dead filesystem; the error is expected
		}
		for rebootSeed := int64(1); rebootSeed <= 6; rebootSeed++ {
			rfs := fs.Reboot(rebootSeed)
			var wantLSN uint64
			var wantBat string
			for open := 1; open <= 3; open++ {
				// The seed only matters when the crash predates the
				// initial snapshot and the directory is still empty.
				rseed, err := NewIndex(pts)
				if err != nil {
					t.Fatal(err)
				}
				re, err := NewEngine(rseed, durCfg(rfs))
				if err != nil {
					dumpFaultDir(t, rfs)
					t.Fatalf("crashAt=%d seed=%d: open %d failed: %v", crashAt, rebootSeed, open, err)
				}
				ws := re.Stats().WAL
				bat := battery(t, re.Snapshot(), 11, false)
				if open == 1 {
					wantLSN, wantBat = ws.LastLSN, bat
					tornSeen += int(ws.TornTailDrops)
				} else {
					if ws.TornTailDrops != 0 {
						t.Fatalf("crashAt=%d seed=%d: open %d still found a torn tail", crashAt, rebootSeed, open)
					}
					if ws.LastLSN != wantLSN || bat != wantBat {
						t.Fatalf("crashAt=%d seed=%d: open %d recovered LSN %d, first open %d (answers equal: %t)",
							crashAt, rebootSeed, open, ws.LastLSN, wantLSN, bat == wantBat)
					}
				}
				if err := re.Close(); err != nil {
					t.Fatalf("crashAt=%d seed=%d: close after open %d: %v", crashAt, rebootSeed, open, err)
				}
			}
		}
	}
	if tornSeen == 0 {
		t.Fatal("no reboot produced a torn WAL tail; the sweep no longer covers the scenario")
	}
}

// TestDurableBitFlipNeverSilentlyWrong flips individual bits across every
// durable file of a finished run and re-opens the store from an exact copy:
// each flip must either be detected (ErrCorruptStore) or leave recovery on
// a valid oracle state (e.g. a flip in the final WAL record is
// indistinguishable from a torn append and drops to the previous LSN; a
// flip in a superseded segment is never read). A recovered-but-wrong
// dataset fails the battery comparison.
func TestDurableBitFlipNeverSilentlyWrong(t *testing.T) {
	pts := basePoints("independent", 40, 3, 3)
	nMut := 30
	script, oracles := buildScript(t, pts, nMut, 4)
	fs := storage.NewFaultFS()
	seed, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(seed, durCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applyScript(t, e, script, map[int]bool{15: true}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(8))
	detected, survived := 0, 0
	for _, name := range fs.Files() {
		data, _ := fs.Bytes(name)
		bits := int64(len(data)) * 8
		for trial := 0; trial < 12; trial++ {
			bit := rng.Int63n(bits)
			if err := fs.FlipBit(name, bit); err != nil {
				t.Fatal(err)
			}
			// Reboot of a fully-synced store is an exact independent copy,
			// so the recovery attempt cannot disturb later iterations.
			rfs := fs.Reboot(1)
			re, err := NewEngine(nil, durCfg(rfs))
			if err != nil {
				if !errors.Is(err, ErrCorruptStore) {
					t.Fatalf("%s bit %d: error %v does not wrap ErrCorruptStore", name, bit, err)
				}
				detected++
			} else {
				lsn := re.Stats().WAL.LastLSN
				if lsn > uint64(nMut) {
					t.Fatalf("%s bit %d: recovered to impossible LSN %d", name, bit, lsn)
				}
				if got, want := battery(t, re.Snapshot(), 13, false), battery(t, oracles[lsn], 13, false); got != want {
					t.Fatalf("%s bit %d: silently wrong recovery at LSN %d", name, bit, lsn)
				}
				survived++
				re.Close()
			}
			if err := fs.FlipBit(name, bit); err != nil {
				t.Fatal(err)
			}
		}
	}
	if detected == 0 || survived == 0 {
		t.Fatalf("degenerate sweep: %d detected, %d survived-valid", detected, survived)
	}
}

// TestDurableSnapshotFallback corrupts the newest snapshot generation and
// requires recovery to fall back to the previous one plus a longer WAL
// replay, landing on the exact final state; with every generation corrupt,
// recovery must refuse.
func TestDurableSnapshotFallback(t *testing.T) {
	pts := basePoints("correlated", 50, 3, 6)
	nMut := 40
	script, oracles := buildScript(t, pts, nMut, 2)
	final := oracles[len(oracles)-1]
	fs := storage.NewFaultFS()
	seed, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(seed, durCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applyScript(t, e, script, map[int]bool{12: true, 28: true}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	var snaps []string
	for _, name := range fs.Files() {
		if strings.HasSuffix(name, ".snap") {
			snaps = append(snaps, name)
		}
	}
	if len(snaps) < 2 {
		t.Fatalf("expected two retained snapshot generations, have %v", snaps)
	}
	newest := snaps[len(snaps)-1]
	sz, _ := fs.Size(newest)
	if err := fs.FlipBit(newest, sz*8/2); err != nil {
		t.Fatal(err)
	}

	rfs := fs.Reboot(3)
	re, err := NewEngine(nil, durCfg(rfs))
	if err != nil {
		t.Fatalf("recovery should fall back past the rotted snapshot: %v", err)
	}
	ws := re.Stats().WAL
	if ws.SnapshotFallbacks == 0 {
		t.Fatalf("recovery did not report a snapshot fallback: %+v", ws)
	}
	if ws.LastLSN != uint64(nMut) {
		t.Fatalf("fallback recovery reached LSN %d, want %d", ws.LastLSN, nMut)
	}
	if got, want := battery(t, re.Snapshot(), 17, true), battery(t, final, 17, true); got != want {
		t.Fatal("fallback recovery is not bit-identical to the oracle")
	}
	re.Close()

	// Rot every snapshot generation (a different bit than above, so the
	// newest snapshot stays corrupt too): recovery must now refuse loudly.
	for _, name := range snaps {
		sz, _ := fs.Size(name)
		if err := fs.FlipBit(name, sz*8/2+9); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewEngine(nil, durCfg(fs.Reboot(4))); !errors.Is(err, ErrCorruptStore) {
		t.Fatalf("all-generations-corrupt open: err = %v, want ErrCorruptStore", err)
	}
}

// TestDurableCloseContract pins the Close durability contract under the
// laziest policy (fsync=off): Close flushes and syncs the WAL, post-close
// mutations fail with ErrEngineClosed, Close is idempotent, and a power
// cut immediately after Close loses nothing.
func TestDurableCloseContract(t *testing.T) {
	pts := basePoints("independent", 30, 2, 12)
	nMut := 20
	script, oracles := buildScript(t, pts, nMut, 13)
	fs := storage.NewFaultFS()
	seed, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := durCfg(fs)
	cfg.Fsync = "off"
	e, err := NewEngine(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applyScript(t, e, script, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, _, err := e.Insert([]float64{0.5, 0.5}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("post-close Insert: %v", err)
	}
	if _, _, err := e.Delete(0); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("post-close Delete: %v", err)
	}
	if err := e.Checkpoint(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("post-close Checkpoint: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	// Power cut right after Close: under fsync=off nothing was synced per
	// mutation, so surviving here proves Close's final flush+sync.
	re, err := NewEngine(nil, durCfg(fs.Reboot(21)))
	if err != nil {
		t.Fatalf("recovery after close+power-cut: %v", err)
	}
	defer re.Close()
	if lsn := re.Stats().WAL.LastLSN; lsn != uint64(nMut) {
		t.Fatalf("recovered LSN %d, want %d: Close lost acknowledged mutations", lsn, nMut)
	}
	if got, want := battery(t, re.Snapshot(), 19, false), battery(t, oracles[nMut], 19, false); got != want {
		t.Fatal("state after close+power-cut differs from oracle")
	}
}

// TestDurableRaceHammer runs concurrent mutations, queries and background
// checkpoints against a durable engine (run under -race in CI), closes
// cleanly, and proves one recovery cycle lands exactly on the final
// published snapshot.
func TestDurableRaceHammer(t *testing.T) {
	pts := basePoints("independent", 120, 3, 31)
	fs := storage.NewFaultFS()
	seed, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := durCfg(fs)
	cfg.Fsync = "interval"
	cfg.FsyncInterval = time.Millisecond
	cfg.CheckpointBytes = 2 << 10
	cfg.CacheSize = 64
	e, err := NewEngine(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 120; i++ {
				if rng.Float64() < 0.7 {
					p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
					if _, _, err := e.Insert(p); err != nil {
						t.Errorf("hammer insert: %v", err)
						return
					}
				} else {
					id := rng.Intn(e.Snapshot().NumIDs())
					if _, _, err := e.Delete(id); err != nil && !errors.Is(err, ErrInvalidArgument) {
						t.Errorf("hammer delete: %v", err)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 120; i++ {
				w := []float64(sample.RandSimplex(rng, 3))
				if _, err := e.TopKCtx(context.Background(), TopKRequest{W: w, K: 5}); err != nil {
					t.Errorf("hammer TopK: %v", err)
					return
				}
				q := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
				if _, err := e.ReverseTopKCtx(context.Background(), ReverseTopKRequest{W: [][]float64{w}, Q: q, K: 4}); err != nil {
					t.Errorf("hammer ReverseTopK: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	finalBat := battery(t, e.Snapshot(), 23, false)
	finalLSN := e.Stats().WAL.LastLSN
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re, err := NewEngine(nil, durCfg(fs.Reboot(77)))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	if lsn := re.Stats().WAL.LastLSN; lsn != finalLSN {
		t.Fatalf("recovered LSN %d, want %d", lsn, finalLSN)
	}
	if got := battery(t, re.Snapshot(), 23, false); got != finalBat {
		t.Fatal("recovered state differs from the final published snapshot")
	}
	if err := re.Snapshot().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableStatsDisabled pins the ablation: without a data directory the
// WAL stats stay zeroed/disabled and mutations run exactly as before.
func TestDurableStatsDisabled(t *testing.T) {
	e, _ := testEngine(t, 50, 2, EngineConfig{})
	if _, _, err := e.Insert([]float64{0.1, 0.2}); err != nil {
		t.Fatal(err)
	}
	ws := e.Stats().WAL
	if ws.Enabled || ws.LastLSN != 0 || ws.Appends != 0 {
		t.Fatalf("in-memory engine reports durability activity: %+v", ws)
	}
	if err := e.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on an in-memory engine should fail")
	}
	if _, err := NewEngine(nil, EngineConfig{}); err == nil {
		t.Fatal("NewEngine(nil) without a data directory should fail")
	}
}

// TestVerifyDataDirReport exercises the offline checker against a healthy
// store, a rotted-but-recoverable store, and an unrecoverable one.
func TestVerifyDataDirReport(t *testing.T) {
	pts := basePoints("independent", 40, 2, 14)
	nMut := 25
	script, _ := buildScript(t, pts, nMut, 15)
	fs := storage.NewFaultFS()
	seed, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(seed, durCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applyScript(t, e, script, map[int]bool{10: true, 20: true}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := VerifyDataDir(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.LastLSN != uint64(nMut) || len(rep.Snapshots) == 0 || len(rep.Segments) == 0 {
		t.Fatalf("healthy store: %+v", rep)
	}

	var snaps []string
	for _, name := range fs.Files() {
		if strings.HasSuffix(name, ".snap") {
			snaps = append(snaps, name)
		}
	}
	newest := snaps[len(snaps)-1]
	sz, _ := fs.Size(newest)
	fs.FlipBit(newest, sz*8/2)
	rep, err = VerifyDataDir(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("fallback-recoverable store reported unrecoverable: %+v", rep)
	}
	found := false
	for _, s := range rep.Snapshots {
		if s.Err != "" {
			found = true
		}
	}
	if !found {
		t.Fatal("report does not surface the corrupt snapshot file")
	}

	for _, name := range snaps {
		sz, _ := fs.Size(name)
		fs.FlipBit(name, sz*8/2+1)
	}
	rep, err = VerifyDataDir(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || rep.Detail == "" {
		t.Fatalf("unrecoverable store blessed: %+v", rep)
	}
}

// TestCacheDepositEpochGuard is the regression for the one-stale-entry
// window: a result computed against a superseded snapshot must not land in
// the cache after the publish-time sweep has already run.
func TestCacheDepositEpochGuard(t *testing.T) {
	e, _ := testEngine(t, 60, 2, EngineConfig{CacheSize: 16})
	staleKey := cacheKey{epoch: e.Epoch(), key: "q"}
	if _, _, err := e.Insert([]float64{0.3, 0.4}); err != nil {
		t.Fatal(err)
	}
	if e.cache.AddIf(staleKey, 1, e.keepEpoch) {
		t.Fatal("deposit keyed to a superseded epoch was accepted")
	}
	if n := e.cache.Len(); n != 0 {
		t.Fatalf("stale entry stranded in cache (len=%d)", n)
	}
	freshKey := cacheKey{epoch: e.Epoch(), key: "q"}
	if !e.cache.AddIf(freshKey, 1, e.keepEpoch) {
		t.Fatal("current-epoch deposit refused")
	}
	if n := e.cache.Len(); n != 1 {
		t.Fatalf("cache len = %d after live deposit", n)
	}
}
