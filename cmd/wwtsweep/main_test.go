package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/vfs"
)

// TestMatrixAcceptsStoredSpellings: matrix files written when "step_procs"
// selected the processor form must keep loading and validating — the
// recorded heavy scaling matrix unchanged (validated only: it is hours of
// simulation), and either spelling for every app, blocking programs
// included.
func TestMatrixAcceptsStoredSpellings(t *testing.T) {
	var runs []string
	for _, app := range []string{"mse", "gauss", "em3d", "lcp", "alcp"} {
		for _, spelling := range []string{"", `,"step_procs":true`, `,"step_procs":false`} {
			runs = append(runs, fmt.Sprintf(`{"app":%q,"machine":"mp","procs":4,"size":64%s}`, app, spelling))
		}
	}
	both := filepath.Join(t.TempDir(), "both.json")
	if err := os.WriteFile(both, []byte(`{"runs":[`+strings.Join(runs, ",")+`]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	for path, wantSpelled := range map[string]int{
		"../../experiments/scaling_matrix_heavy.json": 8,
		both: 5,
	} {
		specs, err := loadMatrix(path)
		if err != nil {
			t.Fatal(err)
		}
		spelled := 0
		for i := range specs {
			if err := specs[i].Validate(); err != nil {
				t.Errorf("%s run %d: %v", path, i, err)
			}
			// The field must survive decode and re-encode, not just be skipped.
			if blob, _ := json.Marshal(&specs[i]); strings.Contains(string(blob), `"step_procs":true`) {
				spelled++
			}
		}
		if spelled != wantSpelled {
			t.Errorf("%s: %d runs kept step_procs, want %d", path, spelled, wantSpelled)
		}
	}
}

// sweep runs the command with args plus -quiet and a fresh -out file and
// returns its exit status and the results file (zero if none was written).
func sweep(t *testing.T, args ...string) (int, Output) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "results.json")
	code := run(append(args, "-quiet", "-out", out))
	var res Output
	if blob, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(blob, &res); err != nil {
			t.Fatal(err)
		}
	}
	return code, res
}

// TestLocalSweepRunsThroughService: a local sweep is a temporary in-process
// service. Its fingerprints are runner.Run's, a repeated cell is a cache
// hit, a deterministic abort is a result with an error, and the data
// directory is removed.
func TestLocalSweepRunsThroughService(t *testing.T) {
	em3d := runner.Spec{App: "em3d", Machine: "mp", Procs: 4, Size: 48, Iters: 5}
	specs := []runner.Spec{
		em3d,
		em3d,
		{App: "lcp", Machine: "mp", Procs: 4, Size: 256, Iters: 2,
			Faults: &cost.FaultsConfig{Seed: 1, DropRate: 1, MaxRetries: 2}},
	}
	blob, err := json.Marshal(&Matrix{Runs: specs})
	if err != nil {
		t.Fatal(err)
	}
	matrix := filepath.Join(t.TempDir(), "matrix.json")
	if err := os.WriteFile(matrix, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // where the service's data directory goes

	code, res := sweep(t, "-matrix", matrix, "-jobs", "1")
	if code != 1 {
		t.Errorf("exit status %d, want 1 (one cell aborted, -fail-on-error)", code)
	}
	if len(res.Runs) != len(specs) {
		t.Fatalf("%d results, want %d", len(res.Runs), len(specs))
	}
	for i, r := range res.Runs {
		want, err := runner.Run(specs[i], runner.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fp := fmt.Sprintf("%#x", want.Fingerprint); r.Fingerprint != fp {
			t.Errorf("cell %d: fingerprint %s, runner.Run gives %s", i, r.Fingerprint, fp)
		}
		if r.JobID == "" {
			t.Errorf("cell %d: no job_id", i)
		}
		if r.Cached != (i == 1) {
			t.Errorf("cell %d: cached = %v", i, r.Cached)
		}
		if (r.Error != "") != (i == 2) {
			t.Errorf("cell %d: error %q", i, r.Error)
		}
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) > 0 {
		t.Errorf("service data left behind: %v %v", left, err)
	}
}

// TestWorkerFlagsRejected: the engine dispatches serially, so the old
// worker-pool flags are undefined and fail loudly — any value, before any
// cell runs — instead of being silently ignored.
func TestWorkerFlagsRejected(t *testing.T) {
	for _, flags := range [][]string{
		{"-workers", "0"},
		{"-workers", "1"},
		{"-verify-workers", "4"},
	} {
		args := append([]string{"-apps", "em3d", "-machines", "mp", "-procs", "4", "-size", "48", "-iters", "5"}, flags...)
		if code, res := sweep(t, args...); code != 2 || res.Runs != nil {
			t.Errorf("%v: exit status %d, %d results; want 2 and no results file", flags, code, len(res.Runs))
		}
	}
}

// TestServerRejectsLocalFlags: the daemon sizes its own pool, so -server
// with -jobs is a usage error, reported before the daemon is contacted.
func TestServerRejectsLocalFlags(t *testing.T) {
	var hits atomic.Int64
	daemon := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.NotFound(w, r)
	}))
	defer daemon.Close()
	for _, flags := range [][]string{
		{"-jobs", "2"},
		{"-jobs", "0"}, // explicitly set, even to the default
	} {
		args := append([]string{"-server", daemon.URL, "-apps", "em3d", "-machines", "mp"}, flags...)
		if code, res := sweep(t, args...); code != 2 || res.Runs != nil {
			t.Errorf("%v: exit status %d, %d results; want 2 and no results file", flags, code, len(res.Runs))
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("daemon contacted %d times", n)
	}
}

// TestServerSweepRecordsNoLocalSizing: against a daemon, the results file
// records 0 jobs instead of a flag value nobody used.
func TestServerSweepRecordsNoLocalSizing(t *testing.T) {
	s, err := serve.New(serve.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	daemon := httptest.NewServer(s.Handler())
	s.Start()
	defer func() {
		s.Drain(time.Minute)
		daemon.Close()
		s.Close()
	}()
	code, res := sweep(t, "-server", daemon.URL, "-apps", "em3d", "-machines", "mp", "-procs", "4", "-size", "48", "-iters", "5")
	if code != 0 || len(res.Runs) != 1 {
		t.Fatalf("exit status %d, %d results", code, len(res.Runs))
	}
	if res.Jobs != 0 {
		t.Errorf("jobs %d; want 0", res.Jobs)
	}
}

// walFull is the host filesystem that fills up once the service's log has
// taken its first append: the submit is acked and every cell runs, but the
// service cannot record a result.
type walFull struct {
	vfs.OS
	appends atomic.Int32
}

func (w *walFull) Create(path string) (vfs.File, error) {
	f, err := w.OS.Create(path)
	if err != nil || !strings.Contains(path, string(filepath.Separator)+"wal"+string(filepath.Separator)) {
		return f, err
	}
	return &walFile{File: f, fs: w, header: true}, nil
}

// walFile is a log segment; its first write is the segment header.
type walFile struct {
	vfs.File
	fs     *walFull
	header bool
}

func (f *walFile) Write(p []byte) (int, error) {
	if !f.header && f.fs.appends.Add(1) > 1 {
		return 0, syscall.ENOSPC
	}
	f.header = false
	return f.File.Write(p)
}

// TestLocalStorageFailureEndsSweep: the service requeues a cell whose
// result it could not store, so a local sweep on a full disk would rerun
// it forever. The sweep must end with an error instead, and clean up.
func TestLocalStorageFailureEndsSweep(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	specs := []runner.Spec{{App: "em3d", Machine: "mp", Procs: 4, Size: 48, Iters: 5}}
	done := make(chan error, 1)
	go func() {
		_, err := inProcessSweep(context.Background(), serve.Config{Jobs: 1, FS: &walFull{}}, specs, 0, time.Minute, true)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "durable writes") {
			t.Errorf("sweep returned %v, want a storage failure", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep still running 30 s after the service failed to store a result")
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) > 0 {
		t.Errorf("service data left behind: %v %v", left, err)
	}
}

// submitted reports whether a local service under tmp has logged a submit:
// some WAL segment holds more than its 11-byte header.
func submitted(tmp string) bool {
	segs, _ := filepath.Glob(filepath.Join(tmp, "wwtsweep-*", "wal", "wal.[0-9]*"))
	for _, seg := range segs {
		if fi, err := os.Stat(seg); err == nil && fi.Size() > 11 {
			return true
		}
	}
	return false
}

// TestInterruptRemovesDataDir: SIGINT during a local sweep drains the
// service and removes its directory, then exits 2 without a results file.
func TestInterruptRemovesDataDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	out := filepath.Join(t.TempDir(), "results.json")
	done := make(chan int, 1)
	go func() {
		// About 10 s of simulation: far longer than the wait below.
		done <- run([]string{"-apps", "em3d", "-machines", "mp", "-procs", "32", "-quiet", "-out", out})
	}()
	// The signal handler was installed before the service's directory, and
	// the batch is in the service's log once a segment outgrows its header;
	// a worker claims the cell within its 10 ms idle poll.
	for wait := time.Now(); !submitted(tmp); time.Sleep(10 * time.Millisecond) {
		if time.Since(wait) > 30*time.Second {
			t.Fatal("batch never submitted")
		}
	}
	time.Sleep(200 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if _, err := os.Stat(out); code != 2 || err == nil {
			t.Errorf("exit status %d, results file stat %v; want 2 and no results file", code, err)
		}
	case <-time.After(time.Minute):
		t.Fatal("sweep still running a minute after SIGINT")
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) > 0 {
		t.Errorf("service data left behind: %v %v", left, err)
	}
}
