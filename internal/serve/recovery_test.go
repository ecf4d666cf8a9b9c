package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/snapshot"
	"repro/internal/vfs"
)

// crash simulates kill -9 for in-process tests: workers are cut off (any
// attempt already inside runner.Run finishes — a real SIGKILL would land
// before or after a WAL append, and "after its completion record" is the
// conservative in-process equivalent) and the WAL fd is released so a new
// Server can own the file. No drain, no checkpointing, no goodbye records.
func crash(s *Server) {
	close(s.stop)
	s.wg.Wait()
	s.wal.Close()
}

// sweepMatrix is the six-cell matrix the CI e2e also uses.
func sweepMatrix() []runner.Spec {
	return []runner.Spec{
		{App: "gauss", Machine: "mp", Procs: 4, Size: 48},
		{App: "gauss", Machine: "sm", Procs: 4, Size: 48},
		{App: "em3d", Machine: "mp", Procs: 4, Size: 40, Iters: 3},
		{App: "em3d", Machine: "sm", Procs: 4, Size: 40, Iters: 3},
		{App: "lcp", Machine: "mp", Procs: 4, Size: 128, Iters: 3},
		{App: "lcp", Machine: "sm", Procs: 4, Size: 128, Iters: 3},
	}
}

// TestCrashRecoveryPendingJobs: jobs acknowledged but never started survive
// a crash — the restarted server carries the same batch, jobs, and keys,
// and completes them with baseline-identical fingerprints.
func TestCrashRecoveryPendingJobs(t *testing.T) {
	dir := t.TempDir()
	specs := sweepMatrix()[:3]
	want := baselineFingerprints(t, specs)

	s1 := newTestServer(t, dir, nil)
	batch, jobs1 := submitDirect(t, s1, specs)
	// Workers never started: the crash lands with everything pending.
	crash(s1)

	s2 := newTestServer(t, dir, nil)
	defer s2.Close()
	pending, running, done, failed := s2.q.counts()
	if pending != len(specs) || running != 0 || done != 0 || failed != 0 {
		t.Fatalf("recovered counts p=%d r=%d d=%d f=%d, want %d/0/0/0", pending, running, done, failed, len(specs))
	}
	bs, ok := s2.q.batchStatus(batch)
	if !ok {
		t.Fatalf("batch %d lost in recovery", batch)
	}
	for i, js := range bs.Jobs {
		if js.ID != fmt.Sprintf("j%d", jobs1[i].id) || js.Key != fmt.Sprintf("%016x", jobs1[i].key) {
			t.Fatalf("job %d identity changed across restart: %+v vs id=%d key=%016x", i, js, jobs1[i].id, jobs1[i].key)
		}
		if js.State != StatePending {
			t.Fatalf("job %s recovered as %s, want pending", js.ID, js.State)
		}
	}

	s2.Start()
	defer s2.Drain(5 * time.Second)
	for i, j := range jobs1 {
		js := waitJobTerminal(t, s2, j.id, 30*time.Second)
		if js.State != StateDone {
			t.Fatalf("job %s: %s (%s)", js.ID, js.State, js.FailError)
		}
		if js.Fingerprint != want[i] {
			t.Fatalf("job %s: fingerprint %s, want %s", js.ID, js.Fingerprint, want[i])
		}
	}
}

// TestCrashRecoveryMidSweep is the headline invariant: SIGKILL mid-sweep,
// restart, and the sweep completes with every cell present exactly once —
// jobs finished before the crash keep their results (from the cache, not a
// rerun), unfinished jobs run exactly once on the new server, and every
// fingerprint matches an uninterrupted baseline.
func TestCrashRecoveryMidSweep(t *testing.T) {
	dir := t.TempDir()
	specs := sweepMatrix()
	want := baselineFingerprints(t, specs)

	s1 := newTestServer(t, dir, func(c *Config) { c.Jobs = 1 })
	batch, jobs1 := submitDirect(t, s1, specs)
	s1.Start()
	// Let part of the sweep land, then pull the plug.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, _, done, _ := s1.q.counts(); done >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress before crash point")
		}
		time.Sleep(2 * time.Millisecond)
	}
	crash(s1)

	stateAtCrash := make(map[uint64]JobStatus)
	doneAtCrash := 0
	for _, j := range jobs1 {
		js, _ := s1.q.jobStatus(j.id)
		stateAtCrash[j.id] = js
		if js.State == StateDone {
			doneAtCrash++
		}
	}
	t.Logf("crashed with %d/%d done", doneAtCrash, len(specs))

	s2 := newTestServer(t, dir, func(c *Config) { c.Jobs = 2 })
	defer s2.Close()
	// Count actual executions on the recovered server, per cache key.
	var mu sync.Mutex
	ran := make(map[uint64]int)
	s2.runJob = func(sp runner.Spec, opts runner.Options) (*runner.Outcome, error) {
		mu.Lock()
		ran[sp.CacheKey()]++
		mu.Unlock()
		return runner.Run(sp, opts)
	}

	// Finished jobs survived as done (materialized from the cache), the
	// rest recovered pending.
	for _, j := range jobs1 {
		js, ok := s2.q.jobStatus(j.id)
		if !ok {
			t.Fatalf("job j%d lost in recovery", j.id)
		}
		was := stateAtCrash[j.id]
		switch was.State {
		case StateDone:
			if js.State != StateDone || js.Fingerprint != was.Fingerprint {
				t.Fatalf("job j%d was done (%s), recovered as %s (%s)", j.id, was.Fingerprint, js.State, js.Fingerprint)
			}
		default:
			if js.State != StatePending {
				t.Fatalf("job j%d was %s, recovered as %s, want pending", j.id, was.State, js.State)
			}
		}
	}

	s2.Start()
	defer s2.Drain(5 * time.Second)
	for i, j := range jobs1 {
		js := waitJobTerminal(t, s2, j.id, 60*time.Second)
		if js.State != StateDone {
			t.Fatalf("job j%d: %s (%s: %s)", j.id, js.State, js.FailKind, js.FailError)
		}
		if js.Fingerprint != want[i] {
			t.Fatalf("job j%d: fingerprint %s, want %s", j.id, js.Fingerprint, want[i])
		}
	}
	bs, _ := s2.q.batchStatus(batch)
	if !bs.Done || bs.Counts[StateDone] != len(specs) {
		t.Fatalf("batch after recovery: %+v", bs.Counts)
	}

	// Exactly once: the recovered server ran only the unfinished cells, and
	// none of them more than once.
	mu.Lock()
	defer mu.Unlock()
	for _, j := range jobs1 {
		was := stateAtCrash[j.id].State
		n := ran[j.key]
		if was == StateDone && n != 0 {
			t.Errorf("job j%d finished before the crash but reran %d times", j.id, n)
		}
		if was != StateDone && n != 1 {
			t.Errorf("job j%d unfinished at crash ran %d times, want exactly 1", j.id, n)
		}
	}
}

// TestQuarantineSurvivesCompaction: the evidence of a rotten record outlives
// the compaction every server open runs — after New, wal/log.quarantine
// holds the rotten record's bytes.
func TestQuarantineSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	res := sampleResult()
	cachedLog(t, dir, res)
	rotten := rotRecord(t, dir, Record{Type: recResult, Result: res})

	s := newTestServer(t, dir, nil)
	defer s.Close()
	if q := s.wal.Quarantined(); q != 1 {
		t.Fatalf("wal quarantined %d records, want the 1 result record", q)
	}
	if got, err := os.ReadFile(logPath(dir) + ".quarantine"); err != nil || !bytes.Equal(got, rotten) {
		t.Fatalf("after the open's compaction, wal/log.quarantine holds %d bytes (%v), want the %d rotten record bytes",
			len(got), err, len(rotten))
	}
}

// TestQuarantineHoldsEachRangeOnce: opens that do not compact (the cache's)
// find the same rotten record at every open; wal/log.quarantine still holds
// its bytes once, after three of them and the server open that compacts it
// away.
func TestQuarantineHoldsEachRangeOnce(t *testing.T) {
	dir := t.TempDir()
	res := sampleResult()
	cachedLog(t, dir, res)
	rotten := rotRecord(t, dir, Record{Type: recResult, Result: res})

	for range 3 {
		c := openCache(t, dir)
		if q := c.wal.Quarantined(); q != 1 {
			t.Fatalf("cache open quarantined %d records, want 1", q)
		}
		c.wal.Close()
	}
	s := newTestServer(t, dir, nil)
	defer s.Close()
	if got, err := os.ReadFile(logPath(dir) + ".quarantine"); err != nil || !bytes.Equal(got, rotten) {
		t.Fatalf("after three cache opens and a server open, wal/log.quarantine holds %d bytes (%v), want the %d rotten record bytes once",
			len(got), err, len(rotten))
	}
}

// TestRecoverySelfHealsMissingCacheEntry: a done job whose result record
// has rotted recovers as pending and recomputes — determinism guarantees
// the same fingerprint.
func TestRecoverySelfHealsMissingCacheEntry(t *testing.T) {
	dir := t.TempDir()
	spec := sweepMatrix()[0]

	s1 := newTestServer(t, dir, nil)
	_, jobs1 := submitDirect(t, s1, []runner.Spec{spec})
	s1.Start()
	js := waitJobTerminal(t, s1, jobs1[0].id, 30*time.Second)
	if js.State != StateDone {
		t.Fatalf("first run: %s", js.State)
	}
	crash(s1)

	res, _ := s1.cache.Get(jobs1[0].key)
	rotRecord(t, dir, Record{Type: recResult, Result: res})

	s2 := newTestServer(t, dir, nil)
	defer s2.Close()
	if got, _ := s2.q.jobStatus(jobs1[0].id); got.State != StatePending {
		t.Fatalf("job with a rotten result record recovered as %s, want pending", got.State)
	}
	if q := s2.wal.Quarantined(); q != 1 {
		t.Fatalf("wal quarantined %d records, want the 1 result record", q)
	}
	s2.Start()
	defer s2.Drain(5 * time.Second)
	js2 := waitJobTerminal(t, s2, jobs1[0].id, 30*time.Second)
	if js2.State != StateDone || js2.Fingerprint != js.Fingerprint {
		t.Fatalf("recomputed: %s fp=%s, want done fp=%s", js2.State, js2.Fingerprint, js.Fingerprint)
	}
}

// TestRecoveryPreservesTerminalFailures: typed terminal failures are
// durable — a restart does not resurrect a job that already exhausted its
// retry budget.
func TestRecoveryPreservesTerminalFailures(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, dir, func(c *Config) { c.MaxRetries = 1 })
	s1.runJob = func(spec runner.Spec, opts runner.Options) (*runner.Outcome, error) {
		return nil, fmt.Errorf("injected persistent failure")
	}
	_, jobs1 := submitDirect(t, s1, sweepMatrix()[:1])
	s1.Start()
	js := waitJobTerminal(t, s1, jobs1[0].id, 30*time.Second)
	if js.State != StateFailed {
		t.Fatalf("setup: %s", js.State)
	}
	crash(s1)

	s2 := newTestServer(t, dir, nil)
	defer s2.Close()
	js2, _ := s2.q.jobStatus(jobs1[0].id)
	if js2.State != StateFailed || js2.FailKind != js.FailKind || js2.FailError != js.FailError || js2.Attempts != js.Attempts {
		t.Fatalf("terminal failure mutated across restart:\n was %+v\n now %+v", js, js2)
	}
}

// TestDrainParksRunningJobAtCheckpoint: SIGTERM-style drain interrupts a
// running job so it snapshots a quantum boundary and parks as pending with
// that resume point in the WAL, and no file beside it; a restarted server
// resumes it through that exact point (replay-verified) and finishes with
// the baseline fingerprint.
func TestDrainParksRunningJobAtCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// A longer cell (~hundreds of ms) so drain lands mid-run.
	spec := runner.Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 160}
	base, err := runner.Run(spec, runner.Options{})
	if err != nil || base.Res.Err != nil {
		t.Fatalf("baseline: %v / %v", err, base.Res.Err)
	}

	s1 := newTestServer(t, dir, func(c *Config) { c.Jobs = 1 })
	_, jobs1 := submitDirect(t, s1, []runner.Spec{spec})
	s1.Start()
	// Wait until the job is actually running, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if js, _ := s1.q.jobStatus(jobs1[0].id); js.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let some cycles accumulate
	if err := s1.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	js, _ := s1.q.jobStatus(jobs1[0].id)
	s1.Close()
	if js.State == StateDone {
		// The run beat the drain on a fast host; nothing to resume.
		t.Skipf("job finished before drain landed (wall %dms); nothing to park", js.WallMS)
	}
	if js.State != StatePending || js.ResumeCycle <= 0 {
		t.Fatalf("drained job: state=%s resume_cycle=%d, want pending with a checkpoint", js.State, js.ResumeCycle)
	}
	if js.Preemptions != 0 {
		t.Fatalf("drain preemption counted against the deadline budget: %d", js.Preemptions)
	}
	onlyWAL(t, dir)

	s2 := newTestServer(t, dir, nil)
	defer s2.Close()
	js2, _ := s2.q.jobStatus(jobs1[0].id)
	if js2.State != StatePending || js2.ResumeCycle != js.ResumeCycle {
		t.Fatalf("parked checkpoint lost: %+v", js2)
	}
	s2.Start()
	defer s2.Drain(5 * time.Second)
	fin := waitJobTerminal(t, s2, jobs1[0].id, 60*time.Second)
	if fin.State != StateDone {
		t.Fatalf("resumed job: %s (%s: %s)", fin.State, fin.FailKind, fin.FailError)
	}
	if fin.ResumedFrom != js.ResumeCycle {
		t.Fatalf("ResumedFrom=%d, want the parked checkpoint cycle %d (verified resume)", fin.ResumedFrom, js.ResumeCycle)
	}
	if want := fmt.Sprintf("%#x", base.Fingerprint); fin.Fingerprint != want {
		t.Fatalf("fingerprint %s after drain+resume, want %s", fin.Fingerprint, want)
	}
}

// onlyWAL fails the test unless the data dir holds wal/ and nothing else.
func onlyWAL(t *testing.T, dir string) {
	t.Helper()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n.Name() != walDirName {
			t.Errorf("data dir holds %s beside wal/", n.Name())
		}
	}
}

// TestResumeRecords: a preempted job's resume point is a WAL record. An
// intact one survives reopening twice (the second replays the compacted
// log): the job reopens with resume_cycle set and finishes with
// resumed_from equal to it. A type-5 record from an older build, which
// named a checkpoint file, and a resume record with one flipped stats byte
// are each quarantined, and the job reruns from cycle 0 to the original
// fingerprint.
func TestResumeRecords(t *testing.T) {
	spec := runner.Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 48}
	want := baselineFingerprints(t, []runner.Spec{spec})[0]
	intr := &runner.Interrupt{}
	intr.Fire()
	pre, err := runner.Run(spec, runner.Options{Interrupt: intr})
	if err != nil || pre.Preempted == nil {
		t.Fatalf("preempted run: %v, snapshot %v", err, pre.Preempted)
	}
	snap := pre.Preempted
	resume := Record{Type: recResume, Job: 0, Resume: snap}

	// An older build's type-5 record: job, cycle, checkpoint file path.
	var payload, legacy snapshot.Enc
	payload.U64(0)
	payload.I64(snap.Cycle)
	payload.Str(fmt.Sprintf("ckpt/j0/preempt-%d.wws", snap.Cycle))
	legacy.U8(5)
	legacy.Blob(payload.Bytes())
	legacy.U64(snapshot.Hash(legacy.Bytes()))

	for _, tc := range []struct {
		name   string
		logged []Record
		damage func(t *testing.T, dir string)
		from   int64 // the resume cycle the job reopens with
	}{
		{"intact", []Record{resume}, nil, snap.Cycle},
		{"older-build", nil, func(t *testing.T, dir string) {
			f, err := os.OpenFile(logPath(dir), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(legacy.Bytes()); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"flipped-stats-byte", []Record{resume}, func(t *testing.T, dir string) {
			path := logPath(dir)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			enc := encodeRecord(&resume)
			i := bytes.Index(b, enc)
			if i < 0 {
				t.Fatal("resume record is not in the log")
			}
			b[i+len(enc)-9] ^= 1 // the last stats byte, just ahead of the checksum
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s0 := newTestServer(t, dir, nil)
			blob, err := json.Marshal(&spec)
			if err != nil {
				t.Fatal(err)
			}
			submit := Record{Type: recSubmit, Job: 0, Key: spec.CacheKey(), Spec: blob}
			if err := s0.wal.Append(append([]Record{submit}, tc.logged...)...); err != nil {
				t.Fatal(err)
			}
			crash(s0)
			if tc.damage != nil {
				tc.damage(t, dir)
			}

			quarantined := int64(0)
			if tc.damage != nil {
				quarantined = 1
			}
			var s *Server
			for open := 1; open <= 2; open++ {
				s = newTestServer(t, dir, nil)
				js, _ := s.q.jobStatus(0)
				if js.State != StatePending || js.ResumeCycle != tc.from {
					t.Fatalf("open %d: job %s with resume_cycle %d, want pending at %d", open, js.State, js.ResumeCycle, tc.from)
				}
				if open == 1 && s.wal.Quarantined() != quarantined {
					t.Fatalf("wal quarantined %d records, want %d", s.wal.Quarantined(), quarantined)
				}
				if open == 1 {
					crash(s)
				}
			}
			defer s.Close()
			s.Start()
			defer s.Drain(5 * time.Second)
			fin := waitJobTerminal(t, s, 0, 30*time.Second)
			if fin.State != StateDone || fin.Fingerprint != want || fin.ResumedFrom != tc.from {
				t.Fatalf("job %s, fingerprint %s, resumed_from %d; want done, %s, %d",
					fin.State, fin.Fingerprint, fin.ResumedFrom, want, tc.from)
			}
		})
	}
}

// preBumpKey is the "wwt-spec-key-v1" cache key of {gauss mp 4 48} and — v1
// left hw_combining out of the encoding — of its hardware-combining twin.
const preBumpKey = 0x38d1b3f2766ca97f

// TestPreBumpDataDirMissesNotAliases: a data directory left by a daemon
// from before the key bump holds the plain run's result under the v1 key
// the twins shared, and a WAL that records the hardware-combining twin as
// done out of that entry. This build must not serve it: the recovered job
// is recomputed under its own key, a fresh submit of either twin misses,
// and each lands on its own fingerprint.
func TestPreBumpDataDirMissesNotAliases(t *testing.T) {
	dir := t.TempDir()
	plain := runner.Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 48}
	hw := plain
	hw.HWCombining = true
	want := baselineFingerprints(t, []runner.Spec{plain, hw})
	if want[0] == want[1] {
		t.Fatalf("setup: hardware combining did not change the run")
	}
	hwJSON, err := json.Marshal(&hw)
	if err != nil {
		t.Fatal(err)
	}

	s0 := newTestServer(t, dir, nil)
	if err := s0.cache.Put(&Result{Key: preBumpKey, Fingerprint: 0xbad, AppLine: "plain, pre-bump"}); err != nil {
		t.Fatal(err)
	}
	if err := s0.wal.Append(
		Record{Type: recSubmit, Job: 0, Key: preBumpKey, Spec: hwJSON},
		Record{Type: recDone, Job: 0, Key: preBumpKey, Cached: true},
	); err != nil {
		t.Fatal(err)
	}
	crash(s0)

	s1 := newTestServer(t, dir, nil)
	defer s1.Close()
	js, ok := s1.q.jobStatus(0)
	if !ok || js.State != StatePending || js.Key != hw.KeyString() {
		t.Fatalf("pre-bump done job recovered as %+v, want pending under key %s", js, hw.KeyString())
	}
	_, fresh := submitDirect(t, s1, []runner.Spec{plain, hw})
	s1.Start()
	defer s1.Drain(5 * time.Second)
	for _, tc := range []struct {
		id   uint64
		want string
	}{{0, want[1]}, {fresh[0].id, want[0]}, {fresh[1].id, want[1]}} {
		js := waitJobTerminal(t, s1, tc.id, 30*time.Second)
		if js.State != StateDone || js.Fingerprint != tc.want {
			t.Errorf("job %s: %s fingerprint %s, want done %s", js.ID, js.State, js.Fingerprint, tc.want)
		}
		if js.Key == fmt.Sprintf("%016x", uint64(preBumpKey)) {
			t.Errorf("job %s still carries the pre-bump key", js.ID)
		}
	}
	// New compacted the log; the pre-bump result is in the compacted image.
	survived := false
	for _, r := range logRecords(t, dir) {
		survived = survived || r.Type == recResult && r.Result.Key == preBumpKey
	}
	if !survived {
		t.Errorf("the pre-bump result did not survive compaction: it should simply never be looked up")
	}
}

// TestRecoveryRunsStoredStepProcsSpec: a submit record from when
// "step_procs" selected the processor form — here on gauss, a blocking
// program, which a daemon of that era would have failed terminally — is
// recovered and run as the spec it names: same key, same fingerprint.
func TestRecoveryRunsStoredStepProcsSpec(t *testing.T) {
	dir := t.TempDir()
	plain := runner.Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 48}
	want := baselineFingerprints(t, []runner.Spec{plain})[0]

	s0 := newTestServer(t, dir, nil)
	stored := []byte(`{"app":"gauss","machine":"mp","procs":4,"size":48,"step_procs":true}`)
	if err := s0.wal.Append(Record{Type: recSubmit, Job: 0, Key: plain.CacheKey(), Spec: stored}); err != nil {
		t.Fatal(err)
	}
	crash(s0)

	s1 := newTestServer(t, dir, nil)
	defer s1.Close()
	s1.Start()
	defer s1.Drain(5 * time.Second)
	js := waitJobTerminal(t, s1, 0, 30*time.Second)
	if js.State != StateDone || js.Fingerprint != want || js.Key != plain.KeyString() {
		t.Fatalf("stored step_procs job: %+v, want done, fingerprint %s, key %s", js, want, plain.KeyString())
	}
}

// legacyEntries are cache/KEY.wwr files as a build that kept results in
// files wrote them for sweepMatrix()[:2]: that build's encoding of each
// cell's result, keyed by spec.
var legacyEntries = map[string]string{
	"6aec257da7aa82de": "070000005757545245530001000000de82aaa77d25ec6a51a7c1d287c0ba062d830700000000000f0000006d61784572723d352e3533652d3133000000000700000008000000426172726965727300000000002072400b000000436f6d7075746174696f6e0000000058111441080000004c696220436f6d7000000000b2d101410a0000004c6962204d69737365730000000000905b400c0000004c6f63616c204d69737365730000000000cf9b400e0000004e6574776f726b204163636573730000000060ffcd400a000000544c42204d69737365730000000000003e4004bc4b5b2519938f",
	"ce193547cf892bc7": "070000005757545245530001000000c72b89cf473519cea9837cec52497a55ffd20a00000000000f0000006d61784572723d352e3533652d31330000000007000000080000004261727269657273000000006e3804410b000000436f6d7075746174696f6e00000000000314410c0000004c6f63616c204d697373657300000000006062400a000000526564756374696f6e7300000000fc3bf7400d000000536861726564204d697373657300000000e4b9f7400a000000544c42204d697373657300000000006068400c0000005772697465204661756c747300000000509fd640898911927d4ebd42",
}

// readTree maps every file name under dir to its contents.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRecoveryIgnoresLegacyCacheDir: a data dir from a build that kept
// results in cache/*.wwr files — done records in the log, the results only
// in those files — opens cleanly. Its done jobs recover as pending and
// recompute to their baseline fingerprints, and cache/ is left as found.
func TestRecoveryIgnoresLegacyCacheDir(t *testing.T) {
	dir := t.TempDir()
	specs := sweepMatrix()[:2]
	want := baselineFingerprints(t, specs)

	w, _, _, err := OpenWAL(vfs.OS{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "cache")
	if err := os.Mkdir(legacy, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		blob, err := json.Marshal(&sp)
		if err != nil {
			t.Fatal(err)
		}
		job := uint64(i)
		if err := w.Append(
			Record{Type: recSubmit, Job: job, Index: i, Key: sp.CacheKey(), Spec: blob},
			Record{Type: recDone, Job: job, Key: sp.CacheKey()},
		); err != nil {
			t.Fatal(err)
		}
		entry, err := hex.DecodeString(legacyEntries[sp.KeyString()])
		if err != nil || len(entry) == 0 {
			t.Fatalf("no legacy entry for key %s (%v)", sp.KeyString(), err)
		}
		if err := os.WriteFile(filepath.Join(legacy, sp.KeyString()+".wwr"), entry, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	before := readTree(t, legacy)

	s := newTestServer(t, dir, nil)
	defer s.Close()
	for i := range specs {
		if js, _ := s.q.jobStatus(uint64(i)); js.State != StatePending {
			t.Fatalf("legacy done job j%d recovered as %s, want pending", i, js.State)
		}
	}
	s.Start()
	defer s.Drain(5 * time.Second)
	for i := range specs {
		js := waitJobTerminal(t, s, uint64(i), 30*time.Second)
		if js.State != StateDone || js.Cached || js.Fingerprint != want[i] {
			t.Errorf("legacy job j%d: %s cached=%v fingerprint %s, want a fresh done %s", i, js.State, js.Cached, js.Fingerprint, want[i])
		}
	}
	if after := readTree(t, legacy); !reflect.DeepEqual(after, before) {
		t.Errorf("cache/ changed: %d files before, %d after", len(before), len(after))
	}
}

// TestResultsLiveInTheLog: the data dir holds the log only.
// A fresh cell's result record is appended just ahead of its done record, a
// cache hit appends only the done record, and compaction keeps one result
// record per key, ahead of every job record.
func TestResultsLiveInTheLog(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, nil)
	s.runJob = func(spec runner.Spec, opts runner.Options) (*runner.Outcome, error) {
		return &runner.Outcome{Fingerprint: stubFP(spec.CacheKey()), AppLine: "stub"}, nil
	}
	specs := testSpecs()[:2]
	_, jobs := submitDirect(t, s, append(specs, specs[0]))
	farFuture := time.Now().Add(time.Hour)
	for j := s.q.claim(farFuture); j != nil; j = s.q.claim(farFuture) {
		s.process(j)
	}

	onlyWAL(t, dir)
	results := map[uint64]int{} // key → index of its result record
	recs := logRecords(t, dir)
	for i, r := range recs {
		switch r.Type {
		case recResult:
			results[r.Result.Key] = i
		case recDone:
			at, ok := results[r.Key]
			if !ok || !r.Cached && at != i-1 {
				t.Errorf("j%d (cached %v): done record at %d, its result record at %d (logged %v)", r.Job, r.Cached, i, at, ok)
			}
		}
	}
	if len(results) != len(specs) {
		t.Fatalf("%d result records, want %d", len(results), len(specs))
	}

	// Log one result twice, then let recovery compact.
	if err := s.cache.Put(s.cache.peek(jobs[0].key)); err != nil {
		t.Fatal(err)
	}
	crash(s)
	s2 := newTestServer(t, dir, nil)
	defer s2.Close()
	seen := map[uint64]bool{}
	jobRecords := false
	for _, r := range logRecords(t, dir) {
		if r.Type != recResult {
			jobRecords = true
			continue
		}
		if jobRecords || seen[r.Result.Key] {
			t.Errorf("compacted log: result record %016x is repeated or follows a job record", r.Result.Key)
		}
		seen[r.Result.Key] = true
	}
	if len(seen) != len(specs) {
		t.Errorf("compacted log holds %d result records, want %d", len(seen), len(specs))
	}
	for _, j := range jobs {
		if js, _ := s2.q.jobStatus(j.id); js.State != StateDone || js.Fingerprint != fmt.Sprintf("%#x", stubFP(j.key)) {
			t.Errorf("j%d after recovery: %s %s", j.id, js.State, js.Fingerprint)
		}
	}
}
