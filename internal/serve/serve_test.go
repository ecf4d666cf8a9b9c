package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// testSpecs is a small cross-machine matrix; each cell runs in ~10ms.
func testSpecs() []runner.Spec {
	return []runner.Spec{
		{App: "gauss", Machine: "mp", Procs: 4, Size: 48},
		{App: "gauss", Machine: "sm", Procs: 4, Size: 48},
		{App: "em3d", Machine: "mp", Procs: 4, Size: 40, Iters: 3},
		{App: "lcp", Machine: "sm", Procs: 4, Size: 128, Iters: 3},
	}
}

func newTestServer(t *testing.T, dir string, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Dir:     dir,
		Jobs:    2,
		Backoff: time.Millisecond,
		Logf:    t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	return s
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body, out any) (int, *APIError) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		apiErr := &APIError{}
		json.NewDecoder(resp.Body).Decode(apiErr)
		return resp.StatusCode, apiErr
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: decode: %v", path, err)
	}
	return resp.StatusCode, nil
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp.StatusCode
}

// waitBatchDone polls the batch endpoint until every job is terminal.
func waitBatchDone(t *testing.T, ts *httptest.Server, batch string, timeout time.Duration) *BatchStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var bs BatchStatus
		if code := getJSON(t, ts, "/v1/batches/"+batch, &bs); code != http.StatusOK {
			t.Fatalf("batch %s: HTTP %d", batch, code)
		}
		if bs.Done {
			return &bs
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch %s not done after %v: %+v", batch, timeout, bs.Counts)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// baselineFingerprints runs the specs directly through the runner.
func baselineFingerprints(t *testing.T, specs []runner.Spec) []string {
	t.Helper()
	fps := make([]string, len(specs))
	for i, sp := range specs {
		out, err := runner.Run(sp, runner.Options{})
		if err != nil || out.Res.Err != nil {
			t.Fatalf("baseline %d: %v / %v", i, err, out.Res.Err)
		}
		fps[i] = fmt.Sprintf("%#x", out.Fingerprint)
	}
	return fps
}

// TestServiceEndToEnd drives the full loop over HTTP: submit, execute,
// verify fingerprints against direct runs, then resubmit and require every
// cell to come back from the result cache bit-identically.
func TestServiceEndToEnd(t *testing.T) {
	specs := testSpecs()
	want := baselineFingerprints(t, specs)

	s := newTestServer(t, t.TempDir(), nil)
	defer s.Close()
	s.Start()
	defer s.Drain(5 * time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code := getJSON(t, ts, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if code := getJSON(t, ts, "/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz: %d", code)
	}

	var sub SubmitResponse
	if code, apiErr := postJSON(t, ts, "/v1/batches", &SubmitRequest{Runs: specs}, &sub); code != http.StatusOK {
		t.Fatalf("submit: %d %v", code, apiErr)
	}
	if len(sub.Jobs) != len(specs) {
		t.Fatalf("submit acked %d jobs, want %d", len(sub.Jobs), len(specs))
	}
	bs := waitBatchDone(t, ts, sub.Batch, 30*time.Second)
	for _, js := range bs.Jobs {
		if js.State != StateDone {
			t.Fatalf("job %s: state %s (%s: %s)", js.ID, js.State, js.FailKind, js.FailError)
		}
		if js.Cached {
			t.Errorf("job %s: fresh run marked cached", js.ID)
		}
		if js.Fingerprint != want[js.Index] {
			t.Errorf("job %s: fingerprint %s, want %s", js.ID, js.Fingerprint, want[js.Index])
		}
		if js.Elapsed == 0 || len(js.Breakdown) == 0 {
			t.Errorf("job %s: missing elapsed/breakdown", js.ID)
		}
	}

	// Single-job endpoint agrees with the batch view.
	var js JobStatus
	if code := getJSON(t, ts, "/v1/jobs/"+bs.Jobs[0].ID, &js); code != http.StatusOK {
		t.Fatalf("job endpoint: %d", code)
	}
	if js.Fingerprint != bs.Jobs[0].Fingerprint {
		t.Fatalf("job endpoint fingerprint %s != batch %s", js.Fingerprint, bs.Jobs[0].Fingerprint)
	}

	// Resubmit: every cell must be served from the cache, bit-identical.
	var sub2 SubmitResponse
	if code, apiErr := postJSON(t, ts, "/v1/batches", &SubmitRequest{Runs: specs}, &sub2); code != http.StatusOK {
		t.Fatalf("resubmit: %d %v", code, apiErr)
	}
	if sub2.Batch == sub.Batch {
		t.Fatalf("resubmit reused batch id %s", sub.Batch)
	}
	bs2 := waitBatchDone(t, ts, sub2.Batch, 10*time.Second)
	for _, js := range bs2.Jobs {
		if js.State != StateDone || !js.Cached {
			t.Fatalf("resubmitted job %s: state=%s cached=%v, want done from cache", js.ID, js.State, js.Cached)
		}
		if js.Fingerprint != want[js.Index] {
			t.Fatalf("resubmitted job %s: fingerprint %s, want %s", js.ID, js.Fingerprint, want[js.Index])
		}
	}

	var st StatsResponse
	if code := getJSON(t, ts, "/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Done != int64(2*len(specs)) {
		t.Errorf("stats done=%d, want %d", st.Done, 2*len(specs))
	}
	if st.CacheHits != int64(len(specs)) {
		t.Errorf("stats cache_hits=%d, want %d", st.CacheHits, len(specs))
	}
	if st.HitRate <= 0 || st.HitRate >= 1 {
		t.Errorf("stats hit_rate=%g, want in (0,1)", st.HitRate)
	}
}

// TestAdmissionControl: batches beyond the queue bound are shed with a
// typed 429 carrying depth and limit; bad specs get a typed 400.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, t.TempDir(), func(c *Config) { c.MaxQueue = 2 })
	defer s.Close()
	// Workers deliberately not started: depth only grows.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := runner.Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 48}
	var sub SubmitResponse

	code, apiErr := postJSON(t, ts, "/v1/batches", &SubmitRequest{Runs: []runner.Spec{spec, spec, spec}}, &sub)
	if code != http.StatusTooManyRequests || apiErr.Kind != ErrQueueFull {
		t.Fatalf("oversized batch: %d %+v, want 429 %s", code, apiErr, ErrQueueFull)
	}
	if apiErr.QueueLimit != 2 {
		t.Fatalf("429 carried limit %d, want 2", apiErr.QueueLimit)
	}
	if code, _ := postJSON(t, ts, "/v1/batches", &SubmitRequest{Runs: []runner.Spec{spec, spec}}, &sub); code != http.StatusOK {
		t.Fatalf("fitting batch rejected: %d", code)
	}
	code, apiErr = postJSON(t, ts, "/v1/batches", &SubmitRequest{Runs: []runner.Spec{spec}}, &sub)
	if code != http.StatusTooManyRequests || apiErr.QueueDepth != 2 {
		t.Fatalf("full queue: %d %+v, want 429 at depth 2", code, apiErr)
	}

	bad := runner.Spec{App: "nope", Machine: "mp", Procs: 4}
	if code, apiErr = postJSON(t, ts, "/v1/batches", &SubmitRequest{Runs: []runner.Spec{bad}}, &sub); code != http.StatusBadRequest || apiErr.Kind != ErrBadSpec {
		t.Fatalf("bad spec: %d %+v, want 400 %s", code, apiErr, ErrBadSpec)
	}
}

// TestDrainRejectsAndReports: during drain, readyz flips to 503 and submits
// are refused with the typed draining error.
func TestDrainRejectsAndReports(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	defer s.Close()
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := getJSON(t, ts, "/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", code)
	}
	if code := getJSON(t, ts, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", code)
	}
	var sub SubmitResponse
	spec := runner.Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 48}
	code, apiErr := postJSON(t, ts, "/v1/batches", &SubmitRequest{Runs: []runner.Spec{spec}}, &sub)
	if code != http.StatusServiceUnavailable || apiErr.Kind != ErrDraining {
		t.Fatalf("submit while draining: %d %+v, want 503 %s", code, apiErr, ErrDraining)
	}
}

// submitDirect bypasses HTTP for supervisor-level tests.
func submitDirect(t *testing.T, s *Server, specs []runner.Spec) (uint64, []*job) {
	t.Helper()
	batch, jobs, err := s.q.submit(specs, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return batch, jobs
}

func waitJobTerminal(t *testing.T, s *Server, id uint64, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		js, ok := s.q.jobStatus(id)
		if !ok {
			t.Fatalf("job %d vanished", id)
		}
		if js.State == StateDone || js.State == StateFailed {
			return js
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d still %s after %v", id, js.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRetryBackoffThenSuccess: host-level failures are retried with the
// attempt count persisted; a later success completes the job normally.
func TestRetryBackoffThenSuccess(t *testing.T) {
	s := newTestServer(t, t.TempDir(), func(c *Config) { c.Jobs = 1; c.MaxRetries = 3 })
	defer s.Close()
	fails := 2
	s.runJob = func(spec runner.Spec, opts runner.Options) (*runner.Outcome, error) {
		if fails > 0 {
			fails--
			return nil, fmt.Errorf("injected host failure")
		}
		return runner.Run(spec, opts)
	}
	_, jobs := submitDirect(t, s, testSpecs()[:1])
	s.Start()
	defer s.Drain(5 * time.Second)

	js := waitJobTerminal(t, s, jobs[0].id, 30*time.Second)
	if js.State != StateDone {
		t.Fatalf("job: %s (%s: %s)", js.State, js.FailKind, js.FailError)
	}
	if js.Attempts != 2 {
		t.Fatalf("attempts=%d, want 2", js.Attempts)
	}
	if got := s.retries.Load(); got != 2 {
		t.Fatalf("retries counter=%d, want 2", got)
	}
}

// TestBoundedRetriesTerminalFailure: a job that fails every attempt settles
// into a typed terminal record instead of retrying forever.
func TestBoundedRetriesTerminalFailure(t *testing.T) {
	s := newTestServer(t, t.TempDir(), func(c *Config) { c.Jobs = 1; c.MaxRetries = 2 })
	defer s.Close()
	s.runJob = func(spec runner.Spec, opts runner.Options) (*runner.Outcome, error) {
		return nil, fmt.Errorf("injected persistent failure")
	}
	_, jobs := submitDirect(t, s, testSpecs()[:1])
	s.Start()
	defer s.Drain(5 * time.Second)

	js := waitJobTerminal(t, s, jobs[0].id, 30*time.Second)
	if js.State != StateFailed || js.FailKind != "harness" {
		t.Fatalf("got %s/%s, want failed/harness", js.State, js.FailKind)
	}
	if !strings.Contains(js.FailError, "injected persistent failure") {
		t.Fatalf("terminal record lost the cause: %q", js.FailError)
	}
	if js.Attempts != 2 {
		t.Fatalf("attempts=%d, want 2 (MaxRetries)", js.Attempts)
	}
}

// TestPanicIsolation: a panicking job becomes that job's typed failure; the
// daemon keeps serving other jobs.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, t.TempDir(), func(c *Config) { c.Jobs = 1; c.MaxRetries = 1 })
	defer s.Close()
	s.runJob = func(spec runner.Spec, opts runner.Options) (*runner.Outcome, error) {
		if spec.App == "gauss" {
			panic("kaboom in the simulator")
		}
		return runner.Run(spec, opts)
	}
	_, jobs := submitDirect(t, s, []runner.Spec{
		{App: "gauss", Machine: "mp", Procs: 4, Size: 48},
		{App: "em3d", Machine: "mp", Procs: 4, Size: 40, Iters: 3},
	})
	s.Start()
	defer s.Drain(5 * time.Second)

	js := waitJobTerminal(t, s, jobs[0].id, 30*time.Second)
	if js.State != StateFailed || js.FailKind != "panic" {
		t.Fatalf("panicking job: %s/%s, want failed/panic", js.State, js.FailKind)
	}
	if !strings.Contains(js.FailError, "kaboom") {
		t.Fatalf("panic value lost: %q", js.FailError)
	}
	if s.panics.Load() == 0 {
		t.Fatal("panic counter not bumped")
	}
	// The survivor completes.
	js2 := waitJobTerminal(t, s, jobs[1].id, 30*time.Second)
	if js2.State != StateDone {
		t.Fatalf("survivor job: %s", js2.State)
	}
}

// TestProcessorPanicIsolation: a panic inside a simulated processor's body
// — which runs on a coroutine of its own — reaches the supervisor's recover
// like any other panic, with one service worker or several: the job fails
// as a JobPanicError and the daemon keeps answering.
func TestProcessorPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := newTestServer(t, t.TempDir(), func(c *Config) { c.Jobs = workers; c.MaxRetries = 1 })
			defer s.Close()
			s.runJob = func(spec runner.Spec, opts runner.Options) (*runner.Outcome, error) {
				e := sim.NewEngine(100)
				for i := 0; i < 8; i++ {
					i := i
					e.AddProc(func(p *sim.Proc) {
						for q := 0; ; q++ {
							if i == 1 && q == 3 {
								panic("kaboom in a processor body")
							}
							p.Compute(100)
							p.Interact()
						}
					})
				}
				return nil, e.Run()
			}
			_, jobs := submitDirect(t, s, testSpecs()[:1])
			s.Start()
			defer s.Drain(5 * time.Second)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			js := waitJobTerminal(t, s, jobs[0].id, 30*time.Second)
			if js.State != StateFailed || js.FailKind != "panic" {
				t.Fatalf("job %s/%s, want failed/panic", js.State, js.FailKind)
			}
			if !strings.Contains(js.FailError, "proc 1 panicked: kaboom") {
				t.Fatalf("panic value lost: %q", js.FailError)
			}
			if code := getJSON(t, ts, "/healthz", nil); code != http.StatusOK {
				t.Fatalf("healthz after the panic: %d", code)
			}
		})
	}
}

// TestDeadlinePreemptionResumes is the acceptance-criteria test: a
// preempted job logs a resume point, requeues, and its next attempt resumes
// through it (replay-verified at that exact cycle — ResumedFrom proves
// it did not silently restart from scratch), finishing with the same
// fingerprint as an uninterrupted run.
func TestDeadlinePreemptionResumes(t *testing.T) {
	spec := runner.Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 48}
	base, err := runner.Run(spec, runner.Options{})
	if err != nil || base.Res.Err != nil {
		t.Fatalf("baseline: %v / %v", err, base.Res.Err)
	}

	s := newTestServer(t, t.TempDir(), func(c *Config) { c.Jobs = 1 })
	defer s.Close()
	preempts := 1
	s.runJob = func(sp runner.Spec, opts runner.Options) (*runner.Outcome, error) {
		// Deterministic stand-in for the wall-clock deadline timer: fire
		// the same interrupt the timer would, before the run starts, so the
		// first attempt preempts at its first quantum boundary.
		if preempts > 0 && opts.Interrupt != nil {
			preempts--
			opts.Interrupt.Fire()
		}
		return runner.Run(sp, opts)
	}
	_, jobs := submitDirect(t, s, []runner.Spec{spec})
	s.Start()
	defer s.Drain(5 * time.Second)

	js := waitJobTerminal(t, s, jobs[0].id, 30*time.Second)
	if js.State != StateDone {
		t.Fatalf("job: %s (%s: %s)", js.State, js.FailKind, js.FailError)
	}
	if js.Preemptions != 1 {
		t.Fatalf("preemptions=%d, want 1", js.Preemptions)
	}
	if js.ResumedFrom <= 0 {
		t.Fatalf("ResumedFrom=%d: resumed attempt did not verify through the checkpoint", js.ResumedFrom)
	}
	if js.ResumedFrom >= int64(base.Res.Elapsed) {
		t.Fatalf("ResumedFrom=%d past run end %d", js.ResumedFrom, base.Res.Elapsed)
	}
	if want := fmt.Sprintf("%#x", base.Fingerprint); js.Fingerprint != want {
		t.Fatalf("fingerprint %s after preempt+resume, want %s", js.Fingerprint, want)
	}
	if s.preemptions.Load() != 1 {
		t.Fatalf("preemption counter=%d, want 1", s.preemptions.Load())
	}
	s.q.mu.Lock()
	defer s.q.mu.Unlock()
	if jobs[0].resume != nil {
		t.Fatal("the finished job still holds its resume point")
	}
}

// TestPreemptionBudget: a job that can never finish inside its deadline
// fails terminally with kind "deadline" instead of cycling forever.
func TestPreemptionBudget(t *testing.T) {
	s := newTestServer(t, t.TempDir(), func(c *Config) { c.Jobs = 1; c.MaxPreempts = 2 })
	defer s.Close()
	s.runJob = func(sp runner.Spec, opts runner.Options) (*runner.Outcome, error) {
		if opts.Interrupt != nil {
			opts.Interrupt.Fire() // every attempt preempts immediately
		}
		return runner.Run(sp, opts)
	}
	_, jobs := submitDirect(t, s, testSpecs()[:1])
	s.Start()
	defer s.Drain(5 * time.Second)

	js := waitJobTerminal(t, s, jobs[0].id, 30*time.Second)
	if js.State != StateFailed || js.FailKind != "deadline" {
		t.Fatalf("got %s/%s, want failed/deadline", js.State, js.FailKind)
	}
}

// TestAbortedRunIsAResult: a deterministic application abort (transport
// retry starvation under heavy injected faults) completes as data — it is
// recorded, cached, and never retried, because rerunning a deterministic
// simulator on the same spec reproduces the same abort.
func TestAbortedRunIsAResult(t *testing.T) {
	// Drop almost every packet with a tiny retry budget: the reliable
	// transport starves deterministically.
	spec := runner.Spec{App: "em3d", Machine: "mp", Procs: 4, Size: 40, Iters: 3,
		Faults: &cost.FaultsConfig{Seed: 1, DropRate: 0.95, MaxRetries: 2}}
	base, err := runner.Run(spec, runner.Options{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if base.Res.Err == nil {
		t.Fatal("baseline run did not abort; fault config too gentle for this test")
	}

	s := newTestServer(t, t.TempDir(), func(c *Config) { c.Jobs = 1; c.MaxRetries = 1 })
	defer s.Close()
	attempts := 0
	s.runJob = func(sp runner.Spec, opts runner.Options) (*runner.Outcome, error) {
		attempts++
		return runner.Run(sp, opts)
	}
	_, jobs := submitDirect(t, s, []runner.Spec{spec})
	s.Start()
	defer s.Drain(5 * time.Second)

	js := waitJobTerminal(t, s, jobs[0].id, 30*time.Second)
	if js.State != StateDone {
		t.Fatalf("aborted run: state %s (%s: %s), want done-with-error", js.State, js.FailKind, js.FailError)
	}
	if !strings.Contains(js.Error, base.Res.Err.Error()) {
		t.Fatalf("job error %q does not carry the abort %q", js.Error, base.Res.Err)
	}
	if attempts != 1 {
		t.Fatalf("deterministic abort was retried: %d attempts", attempts)
	}

	// Resubmitting serves the abort from the cache without a rerun.
	_, jobs2 := submitDirect(t, s, []runner.Spec{spec})
	js2 := waitJobTerminal(t, s, jobs2[0].id, 30*time.Second)
	if js2.State != StateDone || !js2.Cached || js2.Error != js.Error {
		t.Fatalf("cached abort: state=%s cached=%v err=%q", js2.State, js2.Cached, js2.Error)
	}
	if attempts != 1 {
		t.Fatalf("cached abort reran the job: %d attempts", attempts)
	}
}

// TestDrainRacingSubmits: a drain firing while batch submits are mid-flight
// must leave every acked batch durable (ack-and-park) or refuse it with a
// typed 503 — never ack-and-lose. Workers are deliberately not started, so
// an acked job can only survive via the WAL.
func TestDrainRacingSubmits(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())

	const G = 16
	type outcome struct {
		code int
		kind string
		jobs []string
	}
	results := make([]outcome, G)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			spec := runner.Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 4 * (10 + g)}
			var sub SubmitResponse
			code, apiErr := postJSON(t, ts, "/v1/batches", &SubmitRequest{Runs: []runner.Spec{spec}}, &sub)
			o := outcome{code: code}
			if apiErr != nil {
				o.kind = apiErr.Kind
			}
			for _, j := range sub.Jobs {
				o.jobs = append(o.jobs, j.ID)
			}
			results[g] = o
		}(g)
	}
	close(start) // all submits in flight while the drain below races them
	time.Sleep(2 * time.Millisecond)
	drainErr := s.Drain(5 * time.Second)
	wg.Wait()
	ts.Close()
	if drainErr != nil {
		t.Fatalf("drain: %v", drainErr)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The next process must recover every acked job as parked work.
	s2 := newTestServer(t, dir, nil)
	defer s2.Close()
	acked := 0
	for g, o := range results {
		switch o.code {
		case http.StatusOK:
			acked++
			for _, id := range o.jobs {
				jid, ok := parseID(id, "j")
				if !ok {
					t.Fatalf("goroutine %d: malformed acked job id %q", g, id)
				}
				js, found := s2.q.jobStatus(jid)
				if !found {
					t.Fatalf("goroutine %d: acked job %s lost across drain+restart", g, id)
				}
				if js.State != StatePending {
					t.Fatalf("goroutine %d: acked job %s recovered as %s, want pending", g, id, js.State)
				}
			}
		case http.StatusServiceUnavailable:
			if o.kind != ErrDraining {
				t.Fatalf("goroutine %d: 503 with kind %q, want %q", g, o.kind, ErrDraining)
			}
		default:
			t.Fatalf("goroutine %d: status %d (%s), want 200 or 503", g, o.code, o.kind)
		}
	}
	t.Logf("drain race: %d/%d submits acked and parked, rest typed-503", acked, G)
}

// enospcFS wraps the host filesystem with a switchable disk-full condition:
// while tripped, every file sync fails with ENOSPC (data may have landed;
// the fsync is the lie detector). This models a disk filling up mid-serve
// more directly than a probabilistic plan.
type enospcFS struct {
	vfs.FS
	full atomic.Bool
}

func (e *enospcFS) Create(path string) (vfs.File, error) {
	f, err := e.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &enospcFile{File: f, fs: e}, nil
}

func (e *enospcFS) OpenAppend(path string) (vfs.File, error) {
	f, err := e.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &enospcFile{File: f, fs: e}, nil
}

type enospcFile struct {
	vfs.File
	fs *enospcFS
}

func (f *enospcFile) Sync() error {
	if f.fs.full.Load() {
		return syscall.ENOSPC
	}
	return f.File.Sync()
}

// TestENOSPCDegradation: disk-full flips admission to typed 507s with the
// queue paused (never a false ack), and freeing space restores service via
// the submit-time probe — no restart required.
func TestENOSPCDegradation(t *testing.T) {
	fs := &enospcFS{FS: vfs.OS{}}
	s := newTestServer(t, t.TempDir(), func(c *Config) { c.FS = fs })
	defer s.Close()
	// Workers not started: this test is about admission, not execution.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := runner.Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 48}
	var sub SubmitResponse

	fs.full.Store(true)
	code, apiErr := postJSON(t, ts, "/v1/batches", &SubmitRequest{Runs: []runner.Spec{spec}}, &sub)
	if code != http.StatusInsufficientStorage || apiErr.Kind != ErrNoSpace {
		t.Fatalf("submit on full disk: %d %+v, want 507 %s", code, apiErr, ErrNoSpace)
	}
	var st StatsResponse
	if getJSON(t, ts, "/stats", &st); !st.StoragePaused || st.StorageErrs == 0 {
		t.Fatalf("stats after ENOSPC: paused=%v errs=%d", st.StoragePaused, st.StorageErrs)
	}
	if st.Pending != 0 {
		t.Fatalf("failed submit left %d pending jobs", st.Pending)
	}
	// Still paused: the probe keeps failing while the disk is full.
	if code, apiErr = postJSON(t, ts, "/v1/batches", &SubmitRequest{Runs: []runner.Spec{spec}}, &sub); code != http.StatusInsufficientStorage {
		t.Fatalf("second submit on full disk: %d %+v", code, apiErr)
	}

	fs.full.Store(false) // space freed
	if code, apiErr = postJSON(t, ts, "/v1/batches", &SubmitRequest{Runs: []runner.Spec{spec}}, &sub); code != http.StatusOK {
		t.Fatalf("submit after space freed: %d %+v, want 200", code, apiErr)
	}
	var st2 StatsResponse
	if getJSON(t, ts, "/stats", &st2); st2.StoragePaused || st2.Pending != 1 {
		t.Fatalf("stats after recovery: paused=%v pending=%d, want unpaused/1", st2.StoragePaused, st2.Pending)
	}
}
