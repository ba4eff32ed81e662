package wqrtq

// Durability: a paged snapshot store plus a mutation write-ahead log.
//
// When EngineConfig.DataDir is set, the engine persists its state so a
// restart recovers exactly the dataset it was serving:
//
//   - every effective mutation is appended to a WAL segment (internal/wal)
//     and — under the default fsync=always policy — synced before the new
//     snapshot is published, so an acknowledged mutation survives any
//     crash;
//   - a background checkpointer serializes the current immutable snapshot
//     (internal/pagestore) once the segment exceeds CheckpointBytes. The
//     copy-on-write discipline makes this free of coordination: a
//     published *Index is never mutated, so the checkpointer walks it
//     while queries and further mutations proceed;
//   - startup loads the newest snapshot whose checksums verify (falling
//     back to the previous generation if the newest rotted), replays the
//     WAL chain above it, drops a torn final record, and refuses with
//     ErrCorruptStore when durable bytes fail to verify — never serving a
//     silently wrong dataset.
//
// On-disk layout of a data directory:
//
//	snap-<lsn>.snap   paged snapshot covering mutations 1..lsn
//	wal-<base>.wal    mutation records base+1, base+2, ...
//	*.tmp             checkpoint in progress; removed at startup
//
// Each mutation carries a log sequence number (LSN), 1 + the LSN before
// it. A checkpoint at LSN L rotates the log (creating wal-L) and then
// writes snap-L; retention keeps the two newest snapshot generations and
// every segment at or above the older one, so a single rotted snapshot
// file falls back to the previous generation plus a longer replay.
// Recovery enforces the chain invariants — segment bases must continue
// exactly where the snapshot or previous segment ended, records must be
// LSN-contiguous, and only the newest segment may end in a torn tail;
// any other damage is corruption, detected and refused.
//
// With DataDir unset none of this code runs and the engine behaves
// exactly as before: pure in-memory, byte-for-byte identical results.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wqrtq/internal/pagestore"
	"wqrtq/internal/storage"
	"wqrtq/internal/vec"
	"wqrtq/internal/wal"
)

// ErrCorruptStore reports a data directory whose durable bytes fail
// checksum or chain verification. The engine refuses to open (and verify
// refuses to bless) such a directory rather than serve from it.
var ErrCorruptStore = errors.New("wqrtq: data directory is corrupt")

// DefaultCheckpointBytes is the WAL-size threshold that triggers a
// background checkpoint when EngineConfig.CheckpointBytes is zero.
const DefaultCheckpointBytes = 64 << 20

// WALStats surfaces the durability counters in EngineStats and /v1/stats.
type WALStats struct {
	// Enabled is false when the engine runs pure in-memory (no DataDir).
	Enabled bool `json:"enabled"`
	// Fsync is the active policy: always, interval or off.
	Fsync string `json:"fsync,omitempty"`
	// LastLSN is the sequence number of the last logged mutation;
	// SnapshotLSN is the last mutation covered by the newest durable
	// snapshot. The difference is the replay the next restart pays.
	LastLSN     uint64 `json:"last_lsn"`
	SnapshotLSN uint64 `json:"snapshot_lsn"`
	// WALBytes is the size of the current segment — the value compared
	// against the checkpoint threshold.
	WALBytes int64 `json:"wal_bytes"`
	// Appends and Syncs count WAL record appends and file syncs.
	Appends int64 `json:"appends"`
	Syncs   int64 `json:"syncs"`
	// Checkpoints counts completed snapshot checkpoints;
	// CheckpointFailures counts aborted or failed ones.
	Checkpoints        int64 `json:"checkpoints"`
	CheckpointFailures int64 `json:"checkpoint_failures"`
	// Recoveries is 1 when this engine recovered from durable state at
	// startup (0 for a fresh directory). ReplayedRecords, TornTailDrops
	// and SnapshotFallbacks describe that recovery: WAL records re-applied,
	// torn final records discarded, and snapshot generations skipped
	// because their checksums failed.
	Recoveries        int64 `json:"recoveries"`
	ReplayedRecords   int64 `json:"replayed_records"`
	TornTailDrops     int64 `json:"torn_tail_drops"`
	SnapshotFallbacks int64 `json:"snapshot_fallbacks"`
	// Degraded reports read-only mode: persistent WAL or checkpoint I/O
	// failure exhausted the retry budget; mutations fail with ErrDegraded
	// until Engine.Reopen succeeds, queries are unaffected.
	// DegradedReason is wal_append or checkpoint_io; Degradations counts
	// transitions into the state over the engine's lifetime.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	Degradations   int64  `json:"degradations"`
	// Retries counts WAL append retry attempts (each preceded by a
	// backoff and a writer recovery); WriterRecoveries counts the
	// snapshot-then-rotate recoveries that replaced a poisoned writer.
	Retries          int64 `json:"retries"`
	WriterRecoveries int64 `json:"writer_recoveries"`
}

// durable is the engine's durability state. Lock order: e.mu before d.mu.
// The mutation path (under e.mu) appends and syncs before the snapshot is
// published; the checkpointer captures (snapshot, LSN) and rotates the log
// under e.mu, then serializes without any lock.
type durable struct {
	fs        storage.FS
	dir       string
	policy    wal.Policy
	policyStr string
	interval  time.Duration
	threshold int64

	mu          sync.Mutex // guards w, lastLSN, snapLSN, appendsBase, syncsBase, closing, degReason
	w           *wal.Writer
	lastLSN     uint64
	snapLSN     uint64
	appendsBase int64 // counters of rotated-out segments
	syncsBase   int64
	closing     bool   // close has begun; refuse new background work
	degReason   string // why degraded (valid while degraded is true)
	degCause    error

	checkpointing atomic.Bool
	stop          chan struct{}
	wg            sync.WaitGroup
	closeOnce     sync.Once
	closeErr      error

	// degraded is the read-only latch: set (exactly once per transition)
	// when the retry budget is exhausted, cleared only by a successful
	// Engine.Reopen.
	degraded     atomic.Bool
	degradations atomic.Int64
	walRetries   atomic.Int64
	wRecoveries  atomic.Int64
	// ckptFailStreak counts consecutive checkpoint failures; a streak of
	// checkpointDegradeStreak degrades the engine (one failed checkpoint
	// is retried at the next threshold crossing and proves nothing about
	// the device).
	ckptFailStreak atomic.Int64

	checkpoints     atomic.Int64
	checkpointFails atomic.Int64
	recoveries      atomic.Int64
	replayed        atomic.Int64
	tornDrops       atomic.Int64
	fallbacks       atomic.Int64
}

// checkpointDegradeStreak is how many consecutive checkpoint failures
// transition the engine to read-only.
const checkpointDegradeStreak = 3

// The WAL append retry ladder (appendRetry): appendRetries attempts, each
// after a jittered exponential backoff starting at appendBackoff, before
// the engine degrades to read-only.
const (
	appendRetries = 3
	appendBackoff = 2 * time.Millisecond
)

// recInfo summarizes one recovery pass.
type recInfo struct {
	recovered bool // durable state existed (false: fresh directory)
	lastLSN   uint64
	snapLSN   uint64
	replayed  int64
	tornDrops int64
	fallbacks int64
	// tornBase and tornBytes name the newest segment and the length of
	// the tail replay dropped from it, when tornDrops > 0.
	tornBase  uint64
	tornBytes int64
}

// scanDataDir partitions a data directory into snapshot LSNs (descending),
// segment base LSNs (ascending) and leftover temp files.
func scanDataDir(fs storage.FS, dir string) (snaps, wals []uint64, tmps []string, err error) {
	names, err := fs.List(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			tmps = append(tmps, n)
			continue
		}
		if lsn, ok := pagestore.ParseSnapshotName(n); ok {
			snaps = append(snaps, lsn)
			continue
		}
		if base, ok := wal.ParseSegmentName(n); ok {
			wals = append(wals, base)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	return snaps, wals, tmps, nil
}

func readSnapshotFile(fs storage.FS, dir string, lsn uint64) (*pagestore.Snapshot, error) {
	f, err := fs.Open(filepath.Join(dir, pagestore.SnapshotName(lsn)))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := pagestore.Read(f)
	if err != nil {
		return nil, err
	}
	if snap.LastLSN != lsn {
		return nil, fmt.Errorf("%w: snapshot %s declares LSN %d", pagestore.ErrCorrupt, pagestore.SnapshotName(lsn), snap.LastLSN)
	}
	return snap, nil
}

// recoverState rebuilds the index from dir: newest verifiable snapshot
// plus the WAL chain above it. A fresh directory returns (nil, zero
// recInfo, nil); damaged durable state returns an error wrapping
// ErrCorruptStore.
func recoverState(fs storage.FS, dir string) (*Index, recInfo, error) {
	var info recInfo
	snaps, wals, _, err := scanDataDir(fs, dir)
	if err != nil {
		return nil, info, err
	}
	if len(snaps) == 0 {
		if len(wals) == 0 {
			return nil, info, nil
		}
		return nil, info, fmt.Errorf("%w: %d WAL segments but no snapshot", ErrCorruptStore, len(wals))
	}

	var snap *pagestore.Snapshot
	var firstErr error
	for i, lsn := range snaps {
		s, err := readSnapshotFile(fs, dir, lsn)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		snap = s
		info.fallbacks = int64(i)
		break
	}
	if snap == nil {
		return nil, info, fmt.Errorf("%w: none of %d snapshots verifies: %v", ErrCorruptStore, len(snaps), firstErr)
	}
	info.recovered = true
	info.snapLSN = snap.LastLSN
	ix := newIndexFromParts(snap.Tree, snap.Points)

	// Replay every segment at or above the recovered snapshot. The chain
	// must start exactly at the snapshot's LSN, each segment must end
	// exactly where the next begins, and only the final segment may be
	// torn. (Segments below the snapshot are previous-generation history
	// retained for fallback; their records are already in the snapshot.)
	var chain []uint64
	for _, base := range wals {
		if base >= info.snapLSN {
			chain = append(chain, base)
		}
	}
	info.lastLSN = info.snapLSN
	if len(chain) > 0 && chain[0] != info.snapLSN {
		return nil, info, fmt.Errorf("%w: WAL chain starts at %d, snapshot covers %d", ErrCorruptStore, chain[0], info.snapLSN)
	}
	for i, base := range chain {
		res, err := wal.Replay(fs, filepath.Join(dir, wal.SegmentName(base)), base,
			func(kind int, lsn, id uint64, p vec.Point) error {
				switch kind {
				case wal.KindInsert:
					got, err := ix.Insert(p)
					if err != nil {
						return fmt.Errorf("%w: replay LSN %d: %v", ErrCorruptStore, lsn, err)
					}
					if uint64(got) != id {
						return fmt.Errorf("%w: replay LSN %d assigned id %d, log recorded %d", ErrCorruptStore, lsn, got, id)
					}
				case wal.KindDelete:
					ok, err := ix.Delete(int(id))
					if err != nil {
						return fmt.Errorf("%w: replay LSN %d: %v", ErrCorruptStore, lsn, err)
					}
					if !ok {
						return fmt.Errorf("%w: replay LSN %d deletes id %d, which is not live", ErrCorruptStore, lsn, id)
					}
				default:
					return fmt.Errorf("%w: replay LSN %d: unknown kind %d", ErrCorruptStore, lsn, kind)
				}
				return nil
			})
		if err != nil {
			if errors.Is(err, ErrCorruptStore) {
				return nil, info, err
			}
			return nil, info, fmt.Errorf("%w: segment %s: %v", ErrCorruptStore, wal.SegmentName(base), err)
		}
		last := i == len(chain)-1
		if res.TornBytes > 0 {
			if !last {
				return nil, info, fmt.Errorf("%w: segment %s is torn but not the newest", ErrCorruptStore, wal.SegmentName(base))
			}
			info.tornDrops++
			info.tornBase, info.tornBytes = base, res.TornBytes
		}
		if !last && res.LastLSN != chain[i+1] {
			return nil, info, fmt.Errorf("%w: segment %s ends at LSN %d, next segment starts at %d",
				ErrCorruptStore, wal.SegmentName(base), res.LastLSN, chain[i+1])
		}
		info.replayed += int64(res.Records)
		info.lastLSN = res.LastLSN
	}
	return ix, info, nil
}

// openDurable opens (or initializes) cfg.DataDir and returns the index the
// engine must serve plus the durability state. Durable state wins: when
// the directory already holds a dataset, seed is ignored and the recovered
// index is returned.
func openDurable(seed *Index, cfg EngineConfig) (*Index, *durable, error) {
	fs := cfg.FS
	if fs == nil {
		fs = storage.OS()
	}
	policy, err := wal.PolicyFromString(cfg.Fsync)
	if err != nil {
		return nil, nil, invalidArg(err)
	}
	policyStr := cfg.Fsync
	if policyStr == "" {
		policyStr = "always"
	}
	d := &durable{
		fs:        fs,
		dir:       cfg.DataDir,
		policy:    policy,
		policyStr: policyStr,
		interval:  cfg.FsyncInterval,
		threshold: cfg.CheckpointBytes,
		stop:      make(chan struct{}),
	}
	if d.interval <= 0 {
		d.interval = wal.IntervalDefault
	}
	if d.threshold == 0 {
		d.threshold = DefaultCheckpointBytes
	}
	if err := fs.MkdirAll(d.dir); err != nil {
		return nil, nil, err
	}
	// Clear leftover checkpoint temporaries before recovery looks around.
	_, _, tmps, err := scanDataDir(fs, d.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, t := range tmps {
		if err := fs.Remove(filepath.Join(d.dir, t)); err != nil {
			return nil, nil, err
		}
	}

	ix, info, err := recoverState(fs, d.dir)
	if err != nil {
		return nil, nil, err
	}
	if info.recovered {
		d.lastLSN, d.snapLSN = info.lastLSN, info.snapLSN
		d.recoveries.Store(1)
		d.replayed.Store(info.replayed)
		d.tornDrops.Store(info.tornDrops)
		d.fallbacks.Store(info.fallbacks)
	} else {
		// Fresh directory: persist the seed index as the initial snapshot
		// before serving, so the first crash already has something to
		// recover to.
		if seed == nil {
			return nil, nil, invalidArg(errors.New("wqrtq: data directory is empty and no seed index was provided"))
		}
		ix = seed
		if err := d.writeSnapshot(ix, 0); err != nil {
			return nil, nil, err
		}
	}

	// Recovery dropped a torn tail in memory only. Cut it off on disk too
	// before a newer segment exists, or the next open finds a torn segment
	// that is not the newest and refuses the directory. A torn segment
	// that delivered no record has the new segment's name and is simply
	// overwritten by the Create below.
	if info.tornDrops > 0 && info.tornBase != d.lastLSN {
		if err := trimTornSegment(fs, d.dir, info.tornBase, info.tornBytes); err != nil {
			return nil, nil, err
		}
	}

	// Always start a fresh segment at the recovered LSN: appending to an
	// existing file whose tail may be torn would corrupt it. The name can
	// collide with an existing segment only when that segment contributed
	// zero records past its base, so truncating it loses nothing.
	w, err := wal.Create(fs, d.dir, filepath.Join(d.dir, wal.SegmentName(d.lastLSN)), d.lastLSN, policy)
	if err != nil {
		return nil, nil, err
	}
	d.w = w

	if policy == wal.SyncInterval {
		d.wg.Add(1)
		go d.syncLoop()
	}
	return ix, d, nil
}

// trimTornSegment rewrites segment base without its last tornBytes bytes,
// leaving the header and the records replay accepted. It publishes like a
// snapshot, so a crash at any point leaves either the torn original (still
// the newest segment) or the clean prefix, both of which recover to the
// same LSN.
func trimTornSegment(fs storage.FS, dir string, base uint64, tornBytes int64) error {
	final := filepath.Join(dir, wal.SegmentName(base))
	size, err := fs.Size(final)
	if err != nil {
		return err
	}
	src, err := fs.Open(final)
	if err != nil {
		return err
	}
	prefix := make([]byte, size-tornBytes)
	_, err = io.ReadFull(src, prefix)
	src.Close()
	if err != nil {
		return err
	}
	return publishFile(fs, dir, final, func(f storage.File) error {
		_, err := f.Write(prefix)
		return err
	})
}

// publishFile makes final appear atomically with the content write
// produces: tmp → fsync → rename → dir-sync, so a reader only ever sees a
// complete file and a crash leaves at most a stray .tmp, which the next
// open clears.
func publishFile(fs storage.FS, dir, final string, write func(storage.File) error) error {
	tmp := final + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, final); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}

// syncLoop periodically syncs the current segment under the interval
// policy.
func (d *durable) syncLoop() {
	defer d.wg.Done()
	t := time.NewTicker(d.interval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			d.mu.Lock()
			w := d.w
			d.mu.Unlock()
			// Best effort: a failure poisons the writer, which the next
			// mutation reports to its caller.
			_ = w.Sync()
		}
	}
}

// appendInsert logs an effective insert and makes it as durable as the
// policy promises. Called under e.mu, before the mutated snapshot is
// published; an error aborts the mutation with the engine state unchanged.
func (d *durable) appendInsert(id uint64, p vec.Point) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	lsn := d.lastLSN + 1
	if err := d.w.AppendInsert(lsn, id, p); err != nil {
		return err
	}
	d.lastLSN = lsn
	return nil
}

// appendDelete logs an effective delete; see appendInsert.
func (d *durable) appendDelete(id uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	lsn := d.lastLSN + 1
	if err := d.w.AppendDelete(lsn, id); err != nil {
		return err
	}
	d.lastLSN = lsn
	return nil
}

// appendRetry runs one WAL append through the bounded retry ladder:
// attempt, and on failure — the writer is now poisoned — back off with
// jitter, replace the writer via recoverWriter, and attempt again, up to
// appendRetries times. Exhausting the budget latches read-only degraded mode
// and returns the typed *DegradedError; queries are never affected.
// Called under e.mu with cur the published index the WAL position
// corresponds to (the failed mutation is not yet published). appendRetry
// itself takes no locks, so its backoff sleeps live outside every
// critical section the lockhold analyzer tracks.
func (d *durable) appendRetry(cur *Index, attempt func() error) error {
	if d.degraded.Load() {
		return d.degradedErr()
	}
	err := attempt()
	if err == nil {
		return nil
	}
	for i := range appendRetries {
		d.walRetries.Add(1)
		sleepJittered(appendBackoff << i)
		if rerr := d.recoverWriter(cur); rerr != nil {
			err = rerr
			continue
		}
		if err = attempt(); err == nil {
			return nil
		}
	}
	return d.enterDegraded("wal_append", err)
}

// sleepJittered sleeps d scaled by a uniform factor in [0.5, 1.5),
// desynchronizing concurrent retry ladders. A free-standing function that
// takes no locks, by design: backoff sleeps must never sit in a function
// body that also acquires an engine mutex.
func sleepJittered(d time.Duration) {
	time.Sleep(time.Duration(float64(d) * (0.5 + rand.Float64())))
}

// errCheckpointBusy: a concurrent checkpoint holds the serialization
// token; the retry ladder backs off and tries again.
var errCheckpointBusy = errors.New("wqrtq: checkpoint in progress")

// recoverWriter replaces a poisoned WAL writer by snapshot-then-rotate:
// serialize the current index at the exact LSN the log reached, then
// start a fresh segment at that LSN and swap it in. The order matters
// twice over. Appending to the poisoned segment is unsound — its tail
// may hold a partial frame, and a later valid record after undecodable
// bytes is exactly what recovery (correctly) refuses as mid-file
// corruption. And plain rotation without the snapshot is unsound too:
// it would leave the torn segment as a non-final link of the replay
// chain, which recovery also refuses. Writing the snapshot first drops
// the poisoned segment out of the chain entirely — recovery replays only
// segments at or above the snapshot's LSN.
func (d *durable) recoverWriter(cur *Index) error {
	if !d.checkpointing.CompareAndSwap(false, true) {
		return errCheckpointBusy
	}
	defer d.checkpointing.Store(false)
	d.mu.Lock()
	lsn := d.lastLSN
	prev := d.snapLSN
	d.mu.Unlock()
	if err := d.writeSnapshot(cur, lsn); err != nil {
		return err
	}
	w2, err := wal.Create(d.fs, d.dir, filepath.Join(d.dir, wal.SegmentName(lsn)), lsn, d.policy)
	if err != nil {
		return err
	}
	d.mu.Lock()
	old := d.w
	d.w = w2
	a, s := old.Counters()
	d.appendsBase += a
	d.syncsBase += s
	if lsn > d.snapLSN {
		d.snapLSN = lsn
	}
	d.mu.Unlock()
	_ = old.Close() // poisoned: best-effort release of the file handle
	d.wRecoveries.Add(1)
	d.cleanup(lsn, prev)
	return nil
}

// degradedErr returns the typed read-only error while degraded, nil
// otherwise.
func (d *durable) degradedErr() error {
	if !d.degraded.Load() {
		return nil
	}
	d.mu.Lock()
	reason, cause := d.degReason, d.degCause
	d.mu.Unlock()
	return &DegradedError{Reason: reason, Cause: cause}
}

// degradedReason returns the current degradation reason ("" when healthy).
func (d *durable) degradedReason() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.degReason
}

// enterDegraded latches read-only mode. The transition happens exactly
// once per degradation (under d.mu), no matter how many callers race
// into it; every caller gets the typed error.
func (d *durable) enterDegraded(reason string, cause error) error {
	d.mu.Lock()
	if !d.degraded.Load() {
		d.degReason, d.degCause = reason, cause
		d.degraded.Store(true)
		d.degradations.Add(1)
	}
	reason, cause = d.degReason, d.degCause
	d.mu.Unlock()
	return &DegradedError{Reason: reason, Cause: cause}
}

// clearDegraded lifts read-only mode after a successful Reopen.
func (d *durable) clearDegraded() {
	d.mu.Lock()
	d.degReason, d.degCause = "", nil
	d.degraded.Store(false)
	d.mu.Unlock()
}

// Reopen attempts to leave read-only degraded mode: under the mutation
// lock it re-runs the writer recovery (snapshot-then-rotate) against the
// current snapshot and, on success, clears the degraded latch so
// mutations flow again. On error the engine stays degraded; callers
// retry — typically after the operator fixed the device or freed space.
// On a healthy engine Reopen is a no-op.
func (e *Engine) Reopen() error {
	if e.closed.Load() {
		return ErrEngineClosed
	}
	d := e.dur
	if d == nil {
		return errors.New("wqrtq: engine has no data directory")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return ErrEngineClosed
	}
	if !d.degraded.Load() {
		return nil
	}
	if err := d.recoverWriter(e.current.Load()); err != nil {
		return err
	}
	d.ckptFailStreak.Store(0)
	d.clearDegraded()
	return nil
}

// stopped is the abort poll handed to the snapshot serializer so shutdown
// does not wait out a large checkpoint.
func (d *durable) stopped() bool {
	select {
	case <-d.stop:
		return true
	default:
		return false
	}
}

// writeSnapshot serializes ix as snap-<lsn>: write to a temp file, sync,
// rename into place, sync the directory. Readers only ever see complete,
// checksummed snapshots.
func (d *durable) writeSnapshot(ix *Index, lsn uint64) error {
	final := filepath.Join(d.dir, pagestore.SnapshotName(lsn))
	return publishFile(d.fs, d.dir, final, func(f storage.File) error {
		return pagestore.Write(f, ix.tree, ix.ids.Flat(), lsn, d.stopped)
	})
}

// maybeCheckpoint starts a background checkpoint when the current segment
// has outgrown the threshold. Called at the end of a mutation, under e.mu;
// the size probe and CAS are cheap and the work runs in a goroutine.
func (e *Engine) maybeCheckpoint() {
	d := e.dur
	if d.threshold < 0 || d.w.Bytes() < d.threshold {
		return
	}
	if !d.checkpointing.CompareAndSwap(false, true) {
		return
	}
	if !d.begin() {
		// Close has started; it owns the writer from here.
		d.checkpointing.Store(false)
		return
	}
	go func() {
		defer d.wg.Done()
		defer d.checkpointing.Store(false)
		d.noteCheckpoint(e.runCheckpoint())
	}()
}

// begin registers background work with the close barrier, refusing once
// close has started. This closes the wg.Add-vs-Wait race: without the
// closing check a mutation could start a checkpoint goroutine after
// close() had already begun waiting out the group, and the goroutine
// would then race the writer teardown.
func (d *durable) begin() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closing {
		return false
	}
	d.wg.Add(1)
	return true
}

// noteCheckpoint records a checkpoint outcome and drives the persistent-
// failure ladder: checkpointDegradeStreak consecutive failures degrade
// the engine to read-only, any success (or a shutdown abort) heals the
// streak. One failed checkpoint proves nothing about the device — it is
// simply retried at the next threshold crossing.
func (d *durable) noteCheckpoint(err error) {
	if err == nil || errors.Is(err, pagestore.ErrAborted) {
		d.ckptFailStreak.Store(0)
		return
	}
	d.checkpointFails.Add(1)
	if d.ckptFailStreak.Add(1) >= checkpointDegradeStreak {
		_ = d.enterDegraded("checkpoint_io", err)
	}
}

// Checkpoint synchronously serializes the current snapshot and truncates
// the WAL. It is the explicit form of what the background checkpointer
// does at the size threshold; tests and operators use it to bound recovery
// replay on demand. A concurrent checkpoint makes this call a no-op.
func (e *Engine) Checkpoint() error {
	if e.closed.Load() {
		return ErrEngineClosed
	}
	d := e.dur
	if d == nil {
		return errors.New("wqrtq: engine has no data directory")
	}
	if !d.checkpointing.CompareAndSwap(false, true) {
		return nil
	}
	defer d.checkpointing.Store(false)
	err := e.runCheckpoint()
	d.noteCheckpoint(err)
	return err
}

// runCheckpoint performs one checkpoint cycle: under e.mu it captures the
// current (snapshot, LSN) pair and rotates the WAL, then — lock-free,
// because the captured snapshot is immutable — serializes it, publishes
// the snapshot file, and drops superseded generations.
func (e *Engine) runCheckpoint() error {
	d := e.dur
	e.mu.Lock()
	snap := e.current.Load()
	d.mu.Lock()
	if d.closing {
		d.mu.Unlock()
		e.mu.Unlock()
		return pagestore.ErrAborted
	}
	lsn := d.lastLSN
	if lsn == d.snapLSN {
		d.mu.Unlock()
		e.mu.Unlock()
		return nil // nothing new since the last checkpoint
	}
	w2, err := wal.Create(d.fs, d.dir, filepath.Join(d.dir, wal.SegmentName(lsn)), lsn, d.policy)
	if err != nil {
		d.mu.Unlock()
		e.mu.Unlock()
		return err
	}
	old := d.w
	d.w = w2
	// Seal the rotated segment (sync + close) so from here on only the
	// newest segment can ever be torn. Under fsync=always every record in
	// it is already durable; under interval/off a failure here falls
	// within those policies' loss contract, and the snapshot about to be
	// written covers the segment either way.
	sealErr := old.Close()
	a, s := old.Counters()
	d.appendsBase += a
	d.syncsBase += s
	d.mu.Unlock()
	e.mu.Unlock()
	if sealErr != nil && d.policy == wal.SyncAlways {
		// With per-append syncs the final sync is a no-op repeat; a
		// failure means the device is rejecting syncs outright.
		return sealErr
	}

	if err := d.writeSnapshot(snap, lsn); err != nil {
		return err
	}
	d.mu.Lock()
	prev := d.snapLSN
	// Forward-only: a writer recovery may have already published a newer
	// snapshot while this checkpoint serialized an older capture.
	if lsn > d.snapLSN {
		d.snapLSN = lsn
	}
	d.mu.Unlock()
	d.checkpoints.Add(1)
	d.cleanup(lsn, prev)
	return nil
}

// cleanup drops snapshots older than the previous generation and WAL
// segments below it. Failures are ignored: leftover garbage is harmless
// (recovery skips past it) and the next checkpoint retries.
func (d *durable) cleanup(cur, prev uint64) {
	snaps, wals, _, err := scanDataDir(d.fs, d.dir)
	if err != nil {
		return
	}
	removed := false
	for _, lsn := range snaps {
		if lsn != cur && lsn != prev {
			if d.fs.Remove(filepath.Join(d.dir, pagestore.SnapshotName(lsn))) == nil {
				removed = true
			}
		}
	}
	for _, base := range wals {
		if base < prev {
			if d.fs.Remove(filepath.Join(d.dir, wal.SegmentName(base))) == nil {
				removed = true
			}
		}
	}
	if removed {
		_ = d.fs.SyncDir(d.dir)
	}
}

// close flushes and seals the WAL and waits out (or aborts, via the stop
// channel the serializer polls) an in-flight checkpoint. Idempotent.
func (d *durable) close() error {
	d.closeOnce.Do(func() {
		d.mu.Lock()
		d.closing = true
		d.mu.Unlock()
		close(d.stop)
		d.wg.Wait()
		d.mu.Lock()
		d.closeErr = d.w.Close()
		d.mu.Unlock()
	})
	return d.closeErr
}

func (d *durable) stats() WALStats {
	d.mu.Lock()
	w := d.w
	last, snapLSN := d.lastLSN, d.snapLSN
	aBase, sBase := d.appendsBase, d.syncsBase
	reason := d.degReason
	d.mu.Unlock()
	a, s := w.Counters()
	return WALStats{
		Enabled:            true,
		Fsync:              d.policyStr,
		LastLSN:            last,
		SnapshotLSN:        snapLSN,
		WALBytes:           w.Bytes(),
		Appends:            aBase + a,
		Syncs:              sBase + s,
		Checkpoints:        d.checkpoints.Load(),
		CheckpointFailures: d.checkpointFails.Load(),
		Recoveries:         d.recoveries.Load(),
		ReplayedRecords:    d.replayed.Load(),
		TornTailDrops:      d.tornDrops.Load(),
		SnapshotFallbacks:  d.fallbacks.Load(),
		Degraded:           d.degraded.Load(),
		DegradedReason:     reason,
		Degradations:       d.degradations.Load(),
		Retries:            d.walRetries.Load(),
		WriterRecoveries:   d.wRecoveries.Load(),
	}
}

// VerifyFile is one file's status in a VerifyReport.
type VerifyFile struct {
	Name string `json:"name"`
	// LSN is the snapshot's covered LSN or the segment's base LSN.
	LSN uint64 `json:"lsn"`
	// Err is empty when the file verifies.
	Err string `json:"err,omitempty"`
}

// VerifyReport is the result of VerifyDataDir — the offline checker behind
// `wqrtq verify <dir>`.
type VerifyReport struct {
	Snapshots []VerifyFile `json:"snapshots"`
	Segments  []VerifyFile `json:"segments"`
	// OK reports whether a recovery from this directory would succeed;
	// Detail carries the failure when it would not. Individual snapshot
	// files may fail (Err set) while OK stays true — that is exactly the
	// fallback path recovery takes.
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
	// Recovered state, valid when OK: the last durable LSN, live points
	// and allocated ids.
	LastLSN uint64 `json:"last_lsn"`
	Live    int    `json:"live"`
	NumIDs  int    `json:"num_ids"`
}

// VerifyDataDir checks a data directory offline: every snapshot's
// checksums, the WAL chain, and a full dry-run recovery including the
// recovered index's structural invariants. fs nil means the real
// filesystem. The returned error reports only I/O-level failures;
// verification findings land in the report.
func VerifyDataDir(fs storage.FS, dir string) (*VerifyReport, error) {
	if fs == nil {
		fs = storage.OS()
	}
	snaps, wals, _, err := scanDataDir(fs, dir)
	if err != nil {
		return nil, err
	}
	r := &VerifyReport{}
	for _, lsn := range snaps {
		vf := VerifyFile{Name: pagestore.SnapshotName(lsn), LSN: lsn}
		if _, err := readSnapshotFile(fs, dir, lsn); err != nil {
			vf.Err = err.Error()
		}
		r.Snapshots = append(r.Snapshots, vf)
	}
	for _, base := range wals {
		r.Segments = append(r.Segments, VerifyFile{Name: wal.SegmentName(base), LSN: base})
	}
	ix, info, err := recoverState(fs, dir)
	if err != nil {
		r.Detail = err.Error()
		return r, nil
	}
	if ix == nil {
		r.OK = true
		r.Detail = "empty data directory"
		return r, nil
	}
	if err := ix.CheckInvariants(); err != nil {
		r.Detail = fmt.Sprintf("recovered index fails invariants: %v", err)
		return r, nil
	}
	r.OK = true
	r.LastLSN = info.lastLSN
	r.Live = ix.Len()
	r.NumIDs = ix.NumIDs()
	return r, nil
}
