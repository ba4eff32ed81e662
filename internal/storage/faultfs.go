package storage

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FaultFS is an in-memory FS that models crash consistency the way a
// conservative POSIX filesystem behaves under power loss:
//
//   - file bytes written since the last File.Sync are volatile: on a crash
//     they may vanish entirely, survive as an arbitrary prefix, or be
//     replaced by garbage (a torn sector) — chosen per file by Reboot's
//     seeded RNG;
//   - namespace operations (Create, Rename, Remove) since the last
//     SyncDir are volatile: an arbitrary prefix of them, in issue order,
//     survives the crash;
//   - a crash point can be armed at the N-th state-changing operation
//     (SetCrashAt); that operation and every later one fail with
//     ErrCrashed and have no effect, after which Reboot yields the
//     durable view a restarted process would observe.
//
// Every mutating entry point counts toward the operation counter, so a
// sweep over [1, OpCount] exercises a crash before each individual write,
// sync, create, rename, remove and dir-sync the workload performs.
type FaultFS struct {
	mu      sync.Mutex
	files   map[string]*memFile // live namespace (what the process sees)
	dirs    map[string]bool
	synced  map[string]*memFile // namespace as of the last SyncDir
	pending []dirOp             // namespace ops issued since the last SyncDir
	ops     int
	crashAt int // 0 = disarmed; crash fires when ops reaches crashAt
	crashed bool
	// injectN is the remaining budget of transient ErrInjected failures
	// (InjectFailures); unlike the crash point it heals once spent.
	injectN  int
	injected int
	// opDelayNs stalls every Write/Sync by this long before it runs — the
	// I/O-latency injection behind the chaos harness. Atomic so the stall
	// happens outside f.mu and does not serialize unrelated operations.
	opDelayNs atomic.Int64
}

type dirOp struct {
	kind string // "create" | "rename" | "remove"
	name string
	to   string
	file *memFile // the fresh file object for "create"
}

type memFile struct {
	data      []byte
	syncedLen int // prefix of data known durable
}

// NewFaultFS returns an empty fault-injection filesystem with no crash
// point armed.
func NewFaultFS() *FaultFS {
	return &FaultFS{
		files:  map[string]*memFile{},
		dirs:   map[string]bool{},
		synced: map[string]*memFile{},
	}
}

// SetCrashAt arms a crash at the n-th state-changing operation from now
// (1 = the very next one). n <= 0 disarms.
func (f *FaultFS) SetCrashAt(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= 0 {
		f.crashAt = 0
		return
	}
	f.crashAt = f.ops + n
}

// OpCount reports how many state-changing operations have executed (or
// been refused by the crash) so far.
func (f *FaultFS) OpCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the armed crash point has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// InjectFailures arms a transient fault window: the next n state-changing
// operations fail with ErrInjected, after which operations succeed again.
// Unlike SetCrashAt nothing is lost and nothing stays broken — this is the
// hiccuping-device model the WAL retry/backoff path must absorb. n <= 0
// clears the window.
func (f *FaultFS) InjectFailures(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= 0 {
		f.injectN = 0
		return
	}
	f.injectN = n
}

// InjectedCount reports how many operations have failed with ErrInjected.
func (f *FaultFS) InjectedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// SetOpDelay stalls every subsequent Write and Sync by d before it
// executes — the I/O-latency injection used by the chaos harness to model
// a saturated or failing device. d <= 0 clears the stall.
func (f *FaultFS) SetOpDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	f.opDelayNs.Store(int64(d))
}

// stall sleeps out the configured op delay. Called before taking f.mu so a
// slow operation does not serialize unrelated ones.
func (f *FaultFS) stall() {
	if d := f.opDelayNs.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// step counts a state-changing operation and returns the error it must
// fail with: ErrCrashed at and after the armed crash point, ErrInjected
// while a transient fault window is open, nil otherwise. Callers hold f.mu.
func (f *FaultFS) step() error {
	if f.crashed {
		return ErrCrashed
	}
	f.ops++
	if f.crashAt > 0 && f.ops >= f.crashAt {
		f.crashed = true
		return ErrCrashed
	}
	if f.injectN > 0 {
		f.injectN--
		f.injected++
		return ErrInjected
	}
	return nil
}

func (f *FaultFS) Create(name string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return nil, err
	}
	mf := &memFile{}
	f.files[name] = mf
	f.pending = append(f.pending, dirOp{kind: "create", name: name, file: mf})
	return &faultHandle{fs: f, mf: mf, name: name, writable: true}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	mf, ok := f.files[name]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return &faultHandle{fs: f, mf: mf, name: name}, nil
}

func (f *FaultFS) Rename(oldName, newName string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return err
	}
	mf, ok := f.files[oldName]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldName, Err: os.ErrNotExist}
	}
	delete(f.files, oldName)
	f.files[newName] = mf
	f.pending = append(f.pending, dirOp{kind: "rename", name: oldName, to: newName})
	return nil
}

func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return err
	}
	if _, ok := f.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(f.files, name)
	f.pending = append(f.pending, dirOp{kind: "remove", name: name})
	return nil
}

func (f *FaultFS) List(dir string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	if !f.dirs[filepath.Clean(dir)] {
		return nil, &os.PathError{Op: "open", Path: dir, Err: os.ErrNotExist}
	}
	prefix := filepath.Clean(dir) + string(filepath.Separator)
	var names []string
	for name := range f.files {
		if strings.HasPrefix(name, prefix) && !strings.Contains(name[len(prefix):], string(filepath.Separator)) {
			names = append(names, name[len(prefix):])
		}
	}
	sort.Strings(names)
	return names, nil
}

func (f *FaultFS) MkdirAll(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	// Directory creation is modeled as immediately durable: every real
	// workload mkdirs once at startup long before any crash of interest.
	f.dirs[filepath.Clean(dir)] = true
	return nil
}

func (f *FaultFS) SyncDir(string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return err
	}
	// All files share one logical directory for durability purposes; the
	// engine keeps everything in a single data dir.
	f.synced = make(map[string]*memFile, len(f.files))
	for name, mf := range f.files {
		f.synced[name] = mf
	}
	f.pending = nil
	return nil
}

func (f *FaultFS) Size(name string) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, ErrCrashed
	}
	mf, ok := f.files[name]
	if !ok {
		return 0, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
	}
	return int64(len(mf.data)), nil
}

// FlipBit flips one bit of name's current content in place (both the
// durable and volatile view, since they share storage) — the bit-rot
// injection used by the corruption-detection tests.
func (f *FaultFS) FlipBit(name string, bit int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	mf, ok := f.files[name]
	if !ok {
		return &os.PathError{Op: "flipbit", Path: name, Err: os.ErrNotExist}
	}
	if bit < 0 || bit >= int64(len(mf.data))*8 {
		return fmt.Errorf("storage: bit %d out of range for %s (%d bytes)", bit, name, len(mf.data))
	}
	mf.data[bit/8] ^= 1 << (bit % 8)
	return nil
}

// Reboot returns the filesystem a process restarted after the crash would
// observe: the last-synced namespace plus a seeded-random prefix of the
// pending namespace ops, with each file's un-synced byte tail dropped,
// truncated to a random prefix, or overwritten with garbage. The result
// is fully durable (nothing volatile) and has no crash armed. Reboot is
// valid whether or not a crash fired — on a clean FS it simulates a
// power cut "right now".
func (f *FaultFS) Reboot(seed int64) *FaultFS {
	f.mu.Lock()
	defer f.mu.Unlock()
	rng := rand.New(rand.NewSource(seed))

	// Survive a prefix of the pending namespace operations.
	ns := make(map[string]*memFile, len(f.synced))
	for name, mf := range f.synced {
		ns[name] = mf
	}
	keep := rng.Intn(len(f.pending) + 1)
	for _, op := range f.pending[:keep] {
		switch op.kind {
		case "create":
			ns[op.name] = op.file
		case "rename":
			if mf, ok := ns[op.name]; ok {
				delete(ns, op.name)
				ns[op.to] = mf
			}
		case "remove":
			delete(ns, op.name)
		}
	}

	out := NewFaultFS()
	for d := range f.dirs {
		out.dirs[d] = true
	}
	// Deterministic iteration so a given seed reproduces byte-for-byte.
	names := make([]string, 0, len(ns))
	for name := range ns {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mf := ns[name]
		data := append([]byte(nil), mf.data[:mf.syncedLen]...)
		if tail := len(mf.data) - mf.syncedLen; tail > 0 {
			switch rng.Intn(3) {
			case 0: // drop the un-synced tail entirely
			case 1: // an arbitrary prefix of the tail made it to disk
				data = append(data, mf.data[mf.syncedLen:mf.syncedLen+rng.Intn(tail+1)]...)
			case 2: // torn sector: some prefix survives, then garbage
				good := rng.Intn(tail + 1)
				data = append(data, mf.data[mf.syncedLen:mf.syncedLen+good]...)
				junk := make([]byte, rng.Intn(tail-good+1))
				rng.Read(junk)
				data = append(data, junk...)
			}
		}
		nf := &memFile{data: data, syncedLen: len(data)}
		out.files[name] = nf
		out.synced[name] = nf
	}
	return out
}

// Files returns the live file names, sorted — for test assertions.
func (f *FaultFS) Files() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.files))
	for name := range f.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Bytes returns a copy of name's live content.
func (f *FaultFS) Bytes(name string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mf, ok := f.files[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), mf.data...), true
}

// DumpTo writes the live view of every file into dir on the real
// filesystem — used by CI to attach the simulated data directory as an
// artifact when a fault-injection test fails.
func (f *FaultFS) DumpTo(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for name, mf := range f.files {
		dst := filepath.Join(dir, filepath.Base(filepath.Dir(name))+"_"+filepath.Base(name))
		if err := os.WriteFile(dst, mf.data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// faultHandle is one open handle; the read offset is per handle, the
// content is shared through mf under fs.mu.
type faultHandle struct {
	fs       *FaultFS
	mf       *memFile
	name     string
	writable bool
	rpos     int
	closed   bool
}

func (h *faultHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	if h.closed {
		return 0, os.ErrClosed
	}
	if h.rpos >= len(h.mf.data) {
		return 0, io.EOF
	}
	n := copy(p, h.mf.data[h.rpos:])
	h.rpos += n
	return n, nil
}

func (h *faultHandle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	if h.closed {
		return 0, os.ErrClosed
	}
	if off < 0 || off > int64(len(h.mf.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.mf.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *faultHandle) Write(p []byte) (int, error) {
	h.fs.stall()
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, os.ErrClosed
	}
	if !h.writable {
		return 0, errors.New("storage: file opened read-only")
	}
	if err := h.fs.step(); err != nil {
		return 0, err
	}
	h.mf.data = append(h.mf.data, p...)
	return len(p), nil
}

func (h *faultHandle) Sync() error {
	h.fs.stall()
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	if err := h.fs.step(); err != nil {
		return err
	}
	h.mf.syncedLen = len(h.mf.data)
	return nil
}

// Close never counts as a fault site: a crashed process's handles are
// simply gone, and making Close fail would only wedge cleanup paths.
func (h *faultHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}
