package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/snapshot"
	"repro/internal/vfs"
)

func jsonBody(v any) (io.Reader, error) {
	b, err := json.Marshal(v)
	return bytes.NewReader(b), err
}

func jsonDecode(b []byte, v any) error { return json.Unmarshal(b, v) }

func parseHexKey(t *testing.T, s string) uint64 {
	t.Helper()
	k, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		t.Fatalf("job key %q: %v", s, err)
	}
	return k
}

func sortStrings(s []string) { sort.Strings(s) }

// allJobIDs lists every job id in the recovered table, sorted.
func allJobIDs(s *Server) []uint64 {
	s.q.mu.Lock()
	defer s.q.mu.Unlock()
	ids := make([]uint64, 0, len(s.q.jobs))
	for id := range s.q.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// The crash-point exploration harness: run one scripted workload through a
// Faulty filesystem that kills the process at VFS operation index N, reopen
// the service on the surviving bytes with the real filesystem, and assert
// the exactly-once invariants — for EVERY N the workload performs. This is
// the durability layer's analogue of the simulator's exhaustive fault
// sweeps: not "a crash somewhere is survivable" but "a crash everywhere is".
//
// Invariants checked at every crash point:
//   - recovery never errors, whatever half-written state the crash left;
//   - every job acked before the crash (HTTP 200 on its submit) exists
//     after reopen and completes exactly once, with the fingerprint the
//     deterministic stub assigns its spec;
//   - jobs recovered as done are never re-executed;
//   - after recovery completes the queue, no job runs more than once.

// stubFP is the deterministic fingerprint the stubbed executor assigns a
// spec: derived from the cache key alone, so reruns are bit-identical.
func stubFP(key uint64) uint64 { return key ^ 0x5eed1dea }

// stubResume is the resume point the stubbed executor preempts the
// workload's second cell to, once: a deadline preemption injected without
// a wall clock, so the script's VFS operations stay reproducible and every
// crash point lands before, inside or after a resume record.
func stubResume(key uint64) *snapshot.Snapshot {
	return &snapshot.Snapshot{Cycle: 4096, StateHash: key ^ 0xc0ffee, Stats: []byte(fmt.Sprintf("stats of %016x", key))}
}

// stubRun is the deterministic executor the crash harness installs. The
// cell with key preempt is preempted to stubResume unless it resumes; a
// resumed attempt must carry exactly that resume point and verifies it.
func stubRun(t *testing.T, ran map[string]int, preempt uint64) func(runner.Spec, runner.Options) (*runner.Outcome, error) {
	return func(spec runner.Spec, opts runner.Options) (*runner.Outcome, error) {
		key := spec.CacheKey()
		ran[fmt.Sprintf("%016x", key)]++
		if opts.Resume != nil {
			if want := stubResume(key); !reflect.DeepEqual(opts.Resume, want) {
				t.Fatalf("key %016x resumed through %+v, want %+v", key, opts.Resume, want)
			}
			return &runner.Outcome{Fingerprint: stubFP(key), AppLine: "stub", Verified: true}, nil
		}
		if key == preempt {
			return &runner.Outcome{Preempted: stubResume(key)}, nil
		}
		return &runner.Outcome{Fingerprint: stubFP(key), AppLine: "stub"}, nil
	}
}

// preemptedCell is the crash workload's second cell, which its first attempt
// preempts.
var preemptedCell = runner.Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 44}

// crashWorkload drives a fixed, single-threaded workload against a server
// on fsys: three submits interleaved with direct claim/process calls, one
// of which preempts preemptedCell to a resume point, a restart after the
// first, then a bounded drain.
// It returns the acked jobs (job id → expected fingerprint string) and the
// set of keys the stub actually executed. Every step tolerates injected
// failure — that is the point.
func crashWorkload(t *testing.T, fsys vfs.FS, dir string) (acked map[string]string, ran map[string]int) {
	t.Helper()
	acked = map[string]string{}
	ran = map[string]int{}

	cfg := Config{
		Dir:     dir,
		FS:      fsys,
		Jobs:    1,
		Backoff: time.Millisecond,
	}
	var s *Server
	var h http.Handler
	open := func() bool {
		var err error
		if s, err = New(cfg); err != nil {
			return false // crashed during open; nothing more is acked
		}
		s.runJob = stubRun(t, ran, preemptedCell.CacheKey())
		h = s.Handler()
		return true
	}
	if !open() {
		return acked, ran
	}

	specAt := func(size int) runner.Spec {
		return runner.Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 4 * size}
	}
	submit := func(sizes ...int) {
		var req SubmitRequest
		for _, sz := range sizes {
			req.Runs = append(req.Runs, specAt(sz))
		}
		rec := httptest.NewRecorder()
		body, _ := jsonBody(&req)
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/batches", body))
		if rec.Code != 200 {
			return // not acked: the client must not assume acceptance
		}
		var resp SubmitResponse
		if err := jsonDecode(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 submit with undecodable body: %v", err)
		}
		for _, ref := range resp.Jobs {
			key := parseHexKey(t, ref.Key)
			acked[ref.ID] = fmt.Sprintf("%#x", stubFP(key))
		}
	}
	farFuture := time.Now().Add(time.Hour) // bypass retry-backoff gates
	processN := func(n int) {
		for i := 0; i < n; i++ {
			if j := s.q.claim(farFuture); j != nil {
				s.process(j)
			}
		}
	}

	submit(10, 11, 12) // batch A
	processN(2)
	// Restart: recovery compacts the log, the preempted cell's resume point
	// included, through fsys, so crash points also land inside compaction —
	// the one step that renames the log.
	s.wal.Close()
	if !open() {
		return acked, ran
	}
	submit(13, 10, 14, 15) // batch B; size 10 duplicates A → cache-hit path
	processN(4)
	submit(16, 17) // batch C
	processN(12)   // bounded drain: crashed-mode failures just unclaim
	s.wal.Close()
	return acked, ran
}

// recoverAndFinish reopens dir on the real filesystem — recovery must
// succeed whatever the crash left — and drives every pending job to a
// terminal state. It returns job id → (state, fingerprint) plus the keys
// executed post-recovery and the set of jobs already done at reopen.
func recoverAndFinish(t *testing.T, dir string, context string) (states map[string]JobStatus, ran map[string]int, doneAtOpen map[string]bool) {
	t.Helper()
	s, err := New(Config{Dir: dir, Jobs: 1, Backoff: time.Millisecond})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", context, err)
	}
	defer s.wal.Close()
	ran = map[string]int{}
	s.runJob = stubRun(t, ran, 0) // a cell already preempted resumes; none preempts again

	doneAtOpen = map[string]bool{}
	states = map[string]JobStatus{}
	ids := allJobIDs(s)
	for _, id := range ids {
		if js, ok := s.q.jobStatus(id); ok && js.State == StateDone {
			doneAtOpen[js.ID] = true
		}
	}

	farFuture := time.Now().Add(time.Hour)
	for i := 0; i <= len(ids)*3+10; i++ {
		j := s.q.claim(farFuture)
		if j == nil {
			break
		}
		s.process(j)
	}
	for _, id := range ids {
		js, ok := s.q.jobStatus(id)
		if !ok {
			t.Fatalf("%s: job j%d vanished", context, id)
		}
		states[js.ID] = js
	}
	return states, ran, doneAtOpen
}

// TestCrashPointExploration is the acceptance-criteria harness.
func TestCrashPointExploration(t *testing.T) {
	// Pass 1: clean Faulty (no faults, no crash) to learn the workload's
	// operation count and its expected outcome.
	counter := vfs.NewFaulty(vfs.OS{}, vfs.Plan{CrashAt: -1})
	baseDir := t.TempDir()
	baseAcked, _ := crashWorkload(t, counter, baseDir)
	total := int(counter.OpCount())
	if total < 50 {
		t.Fatalf("workload performed only %d VFS ops; script too small to be interesting", total)
	}
	if len(baseAcked) != 9 {
		t.Fatalf("clean workload acked %d jobs, want 9", len(baseAcked))
	}
	resumeLogged := false
	for _, r := range logRecords(t, baseDir) {
		resumeLogged = resumeLogged || r.Type == recResume && r.Resume != nil
	}
	if !resumeLogged {
		t.Fatal("clean workload logged no resume record")
	}
	baseStates, _, _ := recoverAndFinish(t, baseDir, "baseline")
	for id, wantFP := range baseAcked {
		js := baseStates[id]
		if js.State != StateDone || js.Fingerprint != wantFP {
			t.Fatalf("baseline job %s: %s/%s, want done/%s", id, js.State, js.Fingerprint, wantFP)
		}
	}

	stride := 1
	if testing.Short() {
		stride = 7
	}
	t.Logf("exploring %d crash points (stride %d)", total, stride)
	for n := 0; n < total; n += stride {
		dir := t.TempDir()
		faulty := vfs.NewFaulty(vfs.OS{}, vfs.Plan{Seed: uint64(n), CrashAt: int64(n)})
		acked, _ := crashWorkload(t, faulty, dir)
		if !faulty.Crashed() {
			t.Fatalf("crash at op %d never fired (workload did %d ops)", n, faulty.OpCount())
		}
		ctx := fmt.Sprintf("crash at op %d", n)
		states, ranAfter, doneAtOpen := recoverAndFinish(t, dir, ctx)

		// Every acked job completes exactly once with the stub fingerprint.
		for id, wantFP := range acked {
			js, ok := states[id]
			if !ok {
				t.Fatalf("%s: acked job %s lost by recovery", ctx, id)
			}
			if js.State != StateDone {
				t.Fatalf("%s: acked job %s ended %s (%s: %s)", ctx, id, js.State, js.FailKind, js.FailError)
			}
			if js.Fingerprint != wantFP {
				t.Fatalf("%s: job %s fingerprint %s, want %s", ctx, id, js.Fingerprint, wantFP)
			}
		}
		// Jobs recovered as done are never re-executed, and nothing runs
		// twice after recovery.
		for id := range doneAtOpen {
			js := states[id]
			key := strings.TrimPrefix(js.Key, "0x")
			if ranAfter[key] > 0 {
				t.Fatalf("%s: job %s was done at reopen but re-executed", ctx, id)
			}
		}
		for key, count := range ranAfter {
			if count > 1 {
				t.Fatalf("%s: key %s executed %d times post-recovery", ctx, key, count)
			}
		}
	}
}

// TestCrashPointMigrationLeavesNoSegment: a crash at every operation of a
// migrating open over a three-segment dir (legacySegments), then one reopen
// on the real filesystem, leaves the log alone in the wal directory. A
// crash after the migrated log became durable but before the segments were
// deleted used to leave them there for good.
func TestCrashPointMigrationLeavesNoSegment(t *testing.T) {
	src := t.TempDir()
	w, _, _ := openWAL(t, src)
	if err := w.Append(sampleRecords()...); err != nil {
		t.Fatal(err)
	}
	w.Close()
	log, err := os.ReadFile(logPath(src))
	if err != nil {
		t.Fatal(err)
	}
	for n := int64(0); ; n++ {
		dir := t.TempDir()
		legacySegments(t, dir, log, log)
		faulty := vfs.NewFaulty(vfs.OS{}, vfs.Plan{CrashAt: n})
		if w, _, _, err := OpenWAL(faulty, dir, 0); err == nil {
			w.Close()
		}
		w, _, _ := openWAL(t, dir)
		w.Close()
		if names := walFiles(t, dir); !reflect.DeepEqual(names, []string{walLogName}) {
			t.Fatalf("crash at op %d, then reopen: wal directory holds %v, want only %s", n, names, walLogName)
		}
		if !faulty.Crashed() {
			if n < 8 {
				t.Fatalf("migrating open finished after %d operations", n)
			}
			break
		}
	}
}

// TestFaultPlanDeterminism is the fault-plan acceptance criterion at the
// service level: the same probabilistic plan over the same scripted
// workload injects the same fault trace and recovers to the same outcome.
func TestFaultPlanDeterminism(t *testing.T) {
	plan, err := vfs.ParsePlan("seed=7,torn=0.04,fsync=0.04,enospc=0.04,rename=0.02")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (trace []string, ackedIDs []string, states map[string]string) {
		dir := t.TempDir()
		faulty := vfs.NewFaulty(vfs.OS{}, plan)
		acked, _ := crashWorkload(t, faulty, dir)
		for id := range acked {
			ackedIDs = append(ackedIDs, id)
		}
		sortStrings(ackedIDs)
		st, _, _ := recoverAndFinish(t, dir, "determinism")
		states = map[string]string{}
		for id, js := range st {
			states[id] = js.State + "/" + js.Fingerprint
		}
		trace = make([]string, 0, len(faulty.Trace()))
		for _, l := range faulty.Trace() {
			trace = append(trace, strings.ReplaceAll(l, dir, "$DIR"))
		}
		return trace, ackedIDs, states
	}
	t1, a1, s1 := run()
	t2, a2, s2 := run()
	if len(t1) == 0 {
		t.Fatal("plan injected no faults; rates too low for this workload")
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("fault traces diverged:\n%v\n%v", t1, t2)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("acked sets diverged: %v vs %v", a1, a2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("recovery outcomes diverged:\n%v\n%v", s1, s2)
	}
	// And the recovered outcome is correct, not merely repeatable.
	for _, id := range a1 {
		if got := s1[id]; !strings.HasPrefix(got, StateDone+"/") {
			t.Fatalf("acked job %s ended %q", id, got)
		}
	}
}
