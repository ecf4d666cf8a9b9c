package vfs

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// ErrInjected is the sentinel under every injected non-ENOSPC fault, so
// tests can tell injected failures from real host errors.
var ErrInjected = errors.New("vfs: injected fault")

// ErrCrashed is returned by every operation after the plan's crash point
// fires: the simulated process is dead and nothing more reaches the disk.
var ErrCrashed = errors.New("vfs: crashed (operations past the crash point)")

// FaultError is one injected filesystem fault: which operation (by global
// index), on which path, and what kind of failure it simulated.
type FaultError struct {
	Index int64  // global operation index the fault fired at
	Op    string // "write", "sync", "create", "rename", ...
	Path  string
	Kind  string // "torn", "fsync", "enospc", "open", "rename", "crash"
	Err   error  // sentinel: syscall.ENOSPC, ErrCrashed, or ErrInjected
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("vfs: injected %s fault at op %d (%s %s)", e.Kind, e.Index, e.Op, e.Path)
}

func (e *FaultError) Unwrap() error { return e.Err }

// Plan is a deterministic, seeded filesystem fault schedule, mirroring the
// simulator's network/coherence fault plans: the same plan over the same
// operation sequence injects the same faults at the same operation indices.
type Plan struct {
	Seed uint64

	// Per-operation fault probabilities in [0,1].
	TornRate   float64 // writes: only a seeded prefix reaches the file
	FsyncRate  float64 // file/dir syncs fail after the data may have landed
	ENOSPCRate float64 // writes, creates, and syncs fail with ENOSPC
	OpenRate   float64 // creates/opens fail
	RenameRate float64 // renames fail

	// CrashAt, when >= 0, kills the filesystem at global operation index N:
	// operation N itself half-happens (a write persists a seeded prefix,
	// anything else does nothing) and every later operation returns
	// ErrCrashed. -1 disables.
	CrashAt int64
}

// ParsePlan parses the -fault-fsplan flag grammar: comma-separated k=v
// pairs, e.g. "seed=7,torn=0.02,fsync=0.01,enospc=0.05,crash=123". Omitted
// keys default to zero rates, seed 0, and no crash point.
func ParsePlan(s string) (Plan, error) {
	p := Plan{CrashAt: -1}
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return p, fmt.Errorf("vfs: fault plan: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseUint(v, 10, 64)
		case "torn":
			p.TornRate, err = parseRate(v)
		case "fsync":
			p.FsyncRate, err = parseRate(v)
		case "enospc":
			p.ENOSPCRate, err = parseRate(v)
		case "open":
			p.OpenRate, err = parseRate(v)
		case "rename":
			p.RenameRate, err = parseRate(v)
		case "crash":
			p.CrashAt, err = strconv.ParseInt(v, 10, 64)
		default:
			return p, fmt.Errorf("vfs: fault plan: unknown key %q", k)
		}
		if err != nil {
			return p, fmt.Errorf("vfs: fault plan: %s: %w", k, err)
		}
	}
	return p, nil
}

func parseRate(v string) (float64, error) {
	r, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if r < 0 || r > 1 {
		return 0, fmt.Errorf("rate %g outside [0,1]", r)
	}
	return r, nil
}

// Faulty wraps an inner FS with a Plan. Every operation is counted; fault
// decisions are drawn from a seeded splitmix64 stream in operation order, so
// a single-threaded operation sequence replays bit-identically. Injected
// faults are recorded in a trace for determinism checks and operator logs.
type Faulty struct {
	mu     sync.Mutex
	inner  FS
	plan   Plan
	rng    uint64
	ops    int64
	faults int64
	crash  bool
	trace  []string
}

// NewFaulty wraps inner with plan.
func NewFaulty(inner FS, plan Plan) *Faulty {
	return &Faulty{inner: inner, plan: plan, rng: plan.Seed ^ 0x9e3779b97f4a7c15}
}

// splitmix64: tiny, seedable, and plenty for fault scheduling.
func (f *Faulty) next() uint64 {
	f.rng += 0x9e3779b97f4a7c15
	z := f.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// draw returns a uniform float in [0,1) from the plan stream.
func (f *Faulty) draw() float64 { return float64(f.next()>>11) / (1 << 53) }

// OpCount returns the number of filesystem operations observed so far — the
// crash-point harness runs a workload once to learn its length, then crashes
// at every index in [0, OpCount).
func (f *Faulty) OpCount() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// FaultCount returns how many faults (including the crash) were injected.
func (f *Faulty) FaultCount() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults
}

// Crashed reports whether the crash point has fired.
func (f *Faulty) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crash
}

// Trace returns a copy of the injected-fault trace, one line per fault, in
// injection order. Two runs of the same plan over the same operation
// sequence produce identical traces.
func (f *Faulty) Trace() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.trace...)
}

// decide runs the per-operation fault schedule. It returns a nil error when
// the operation should proceed normally. For write-class operations that
// fail, prefix is how many of n bytes should still reach the inner FS
// (simulating a torn write) before the error is reported.
func (f *Faulty) decide(op, path string, n int) (prefix int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crash {
		return 0, ErrCrashed
	}
	idx := f.ops
	f.ops++

	fail := func(kind string, sentinel error, pfx int) (int, error) {
		f.faults++
		f.trace = append(f.trace, fmt.Sprintf("op=%d %s %s kind=%s prefix=%d/%d", idx, op, path, kind, pfx, n))
		return pfx, &FaultError{Index: idx, Op: op, Path: path, Kind: kind, Err: sentinel}
	}

	if f.plan.CrashAt >= 0 && idx >= f.plan.CrashAt {
		f.crash = true
		pfx := 0
		if op == "write" && n > 0 {
			pfx = int(f.next() % uint64(n+1)) // crash may land mid-write or just after
		}
		return fail("crash", ErrCrashed, pfx)
	}

	u := f.draw()
	switch op {
	case "write":
		if u < f.plan.TornRate {
			pfx := 0
			if n > 0 {
				pfx = int(f.next() % uint64(n)) // strictly short
			}
			return fail("torn", ErrInjected, pfx)
		}
		if u < f.plan.TornRate+f.plan.ENOSPCRate {
			pfx := 0
			if n > 0 {
				pfx = int(f.next() % uint64(n))
			}
			return fail("enospc", syscall.ENOSPC, pfx)
		}
	case "sync", "syncdir":
		if u < f.plan.FsyncRate {
			return fail("fsync", ErrInjected, 0)
		}
		if u < f.plan.FsyncRate+f.plan.ENOSPCRate {
			return fail("enospc", syscall.ENOSPC, 0)
		}
	case "create", "open":
		if u < f.plan.OpenRate {
			return fail("open", ErrInjected, 0)
		}
		if u < f.plan.OpenRate+f.plan.ENOSPCRate {
			return fail("enospc", syscall.ENOSPC, 0)
		}
	case "rename":
		if u < f.plan.RenameRate {
			return fail("rename", ErrInjected, 0)
		}
	}
	return 0, nil
}

func (f *Faulty) ReadFile(path string) ([]byte, error) {
	if _, err := f.decide("read", path, 0); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(path)
}

func (f *Faulty) WriteFile(path string, data []byte, perm os.FileMode) error {
	prefix, err := f.decide("write", path, len(data))
	if err != nil {
		if prefix > 0 {
			f.inner.WriteFile(path, data[:prefix], perm)
		}
		return err
	}
	return f.inner.WriteFile(path, data, perm)
}

func (f *Faulty) Create(path string) (File, error) {
	if _, err := f.decide("create", path, 0); err != nil {
		return nil, err
	}
	inner, err := f.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultyFile{f: f, path: path, inner: inner}, nil
}

func (f *Faulty) OpenAppend(path string) (File, error) {
	if _, err := f.decide("open", path, 0); err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultyFile{f: f, path: path, inner: inner}, nil
}

func (f *Faulty) Rename(oldpath, newpath string) error {
	if _, err := f.decide("rename", oldpath, 0); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Faulty) Remove(path string) error {
	if _, err := f.decide("remove", path, 0); err != nil {
		return err
	}
	return f.inner.Remove(path)
}

func (f *Faulty) Truncate(path string, size int64) error {
	if _, err := f.decide("truncate", path, 0); err != nil {
		return err
	}
	return f.inner.Truncate(path, size)
}

func (f *Faulty) MkdirAll(path string, perm os.FileMode) error {
	if _, err := f.decide("mkdir", path, 0); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *Faulty) ReadDir(path string) ([]string, error) {
	if _, err := f.decide("readdir", path, 0); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(path)
}

func (f *Faulty) SyncDir(path string) error {
	if _, err := f.decide("syncdir", path, 0); err != nil {
		return err
	}
	return f.inner.SyncDir(path)
}

// faultyFile routes a handle's writes and syncs back through the parent's
// fault schedule. Close is never faulted and never counted: handles must
// always be releasable so a crashed workload does not leak descriptors.
type faultyFile struct {
	f     *Faulty
	path  string
	inner File
}

func (h *faultyFile) Write(p []byte) (int, error) {
	prefix, err := h.f.decide("write", h.path, len(p))
	if err != nil {
		if prefix > 0 {
			h.inner.Write(p[:prefix])
		}
		return prefix, err
	}
	return h.inner.Write(p)
}

func (h *faultyFile) Sync() error {
	if _, err := h.f.decide("sync", h.path, 0); err != nil {
		return err
	}
	return h.inner.Sync()
}

func (h *faultyFile) Close() error { return h.inner.Close() }
