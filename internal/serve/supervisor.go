package serve

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/runner"
	"repro/internal/stats"
)

// The supervisor is the worker pool between the queue and runner.Run, and
// the place every per-job robustness mechanism lives:
//
//   - panic isolation: an attempt runs behind recover(), so one exploding
//     job becomes that job's typed failure, never the daemon's;
//   - deadlines: a wall-clock timer fires the attempt's runner.Interrupt;
//     the run snapshots its next quantum boundary and is requeued with that
//     resume point logged in the WAL, so the next attempt resumes
//     (replay-verified) instead of restarting from cycle zero;
//   - bounded retries: host-level failures (panics, replay divergence)
//     retry with exponential backoff up to MaxRetries,
//     then settle into a typed terminal-failure record. Deterministic
//     application aborts are NOT retried — the simulator would abort
//     identically every time — they complete as (cacheable) results;
//   - the cache fast path: a claimed job whose key is already in the result
//     cache completes immediately with a cache-hit marker.

// JobPanicError is the typed failure a recovered panic turns into.
type JobPanicError struct {
	Job   uint64
	Value string
}

func (e *JobPanicError) Error() string {
	return fmt.Sprintf("serve: job j%d panicked: %s", e.Job, e.Value)
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		var j *job
		if !s.draining.Load() {
			j = s.q.claim(time.Now())
		}
		if j == nil {
			select {
			case <-s.stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		s.process(j)
	}
}

// process drives one claimed job to its next durable state.
func (s *Server) process(j *job) {
	if res, _ := s.cache.Get(j.key); res != nil {
		if err := s.q.complete(j, res, true); err != nil {
			s.unrecorded(j, "cache hit", err)
			return
		}
		s.storageOK()
		s.logf("j%d %s/%s done (cache hit, fp %#x)", j.id, j.spec.App, j.spec.Machine, res.Fingerprint)
		return
	}

	resume := j.resume
	t0 := time.Now()
	out, runErr := s.attempt(j)
	wallMS := time.Since(t0).Milliseconds()
	verified := int64(0)
	if out != nil && out.Verified {
		verified = resume.Cycle
	}
	s.q.noteRun(j, wallMS, verified)

	switch {
	case runErr != nil:
		var div *runner.ReplayDivergenceError
		kind := "harness"
		var pe *JobPanicError
		if errors.As(runErr, &pe) {
			kind = "panic"
			s.panics.Add(1)
		} else if errors.As(runErr, &div) {
			kind = "divergence"
		}
		s.retry(j, kind, runErr)

	case out.Preempted != nil:
		s.preemptions.Add(1)
		at := out.Preempted.Cycle
		if s.draining.Load() {
			// Drain preemption: park the job with its resume point for the
			// next process; doesn't count against the preemption budget.
			if err := s.q.requeuePreempt(j, out.Preempted, false); err != nil {
				s.unrecorded(j, "drain resume point", err)
				return
			}
			s.storageOK()
			s.logf("j%d %s/%s drained to a resume point at cycle %d", j.id, j.spec.App, j.spec.Machine, at)
			return
		}
		if j.preempts+1 > s.cfg.MaxPreempts {
			s.failTerminal(j, "deadline", fmt.Errorf(
				"serve: job j%d preempted %d times without finishing (deadline too tight for this cell)",
				j.id, j.preempts+1))
			return
		}
		if err := s.q.requeuePreempt(j, out.Preempted, true); err != nil {
			s.unrecorded(j, "preemption", err)
			return
		}
		s.storageOK()
		s.logf("j%d %s/%s deadline-preempted at cycle %d, requeued to resume", j.id, j.spec.App, j.spec.Machine, at)

	default:
		res := buildResult(j.key, out)
		if err := s.q.complete(j, res, false); err != nil {
			s.unrecorded(j, "completion", err)
			return
		}
		s.storageOK()
		status := fmt.Sprintf("fp %#x", res.Fingerprint)
		if res.Err != "" {
			status = "aborted: " + res.Err
		}
		s.logf("j%d %s/%s done (%s, %d ms)", j.id, j.spec.App, j.spec.Machine, status, wallMS)
	}
}

// unrecorded handles a job whose durable state transition could not be
// written: the job returns to pending (with backoff) so the transition is
// retried once the disk recovers, instead of wedging in "running" forever.
// Nothing was acked, so recovery semantics are identical to a crash here.
func (s *Server) unrecorded(j *job, what string, err error) {
	s.noteStorage(err)
	s.q.unclaim(j, s.cfg.Backoff)
	s.logf("j%d: record %s: %v (unclaimed, will retry transition)", j.id, what, err)
}

// attempt executes one supervised try of j: panic-isolated, deadline-armed,
// replaying through the job's resume point when it has one.
func (s *Server) attempt(j *job) (out *runner.Outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, &JobPanicError{Job: j.id, Value: fmt.Sprint(p)}
		}
	}()

	intr := &runner.Interrupt{}
	s.trackRunning(j.id, intr)
	defer s.untrackRunning(j.id)
	if s.draining.Load() {
		intr.Fire() // drain began between claim and here
	}
	if dl := s.deadlineFor(j); dl > 0 {
		t := time.AfterFunc(dl, intr.Fire)
		defer t.Stop()
	}

	return s.runJob(j.spec, runner.Options{Interrupt: intr, Resume: j.resume})
}

// retry applies the bounded-retry policy to a host-level failure.
func (s *Server) retry(j *job, kind string, cause error) {
	if j.attempts+1 > s.cfg.MaxRetries {
		s.failTerminal(j, kind, cause)
		return
	}
	backoff := s.cfg.Backoff << uint(j.attempts)
	s.retries.Add(1)
	// A divergence's resume point is permanently unverifiable; drop it.
	if err := s.q.requeueRetry(j, backoff, kind == "divergence"); err != nil {
		s.unrecorded(j, "retry", err)
		return
	}
	s.storageOK()
	s.logf("j%d %s/%s attempt %d failed (%s: %v), retrying in %v",
		j.id, j.spec.App, j.spec.Machine, j.attempts, kind, cause, backoff)
}

func (s *Server) failTerminal(j *job, kind string, cause error) {
	if err := s.q.fail(j, kind, cause.Error()); err != nil {
		s.unrecorded(j, "terminal failure", err)
		return
	}
	s.storageOK()
	s.logf("j%d %s/%s FAILED terminally (%s): %v", j.id, j.spec.App, j.spec.Machine, kind, cause)
}

func (s *Server) deadlineFor(j *job) time.Duration {
	if j.deadline > 0 {
		return j.deadline
	}
	return s.cfg.Deadline
}

// buildResult converts a completed runner outcome into the canonical
// cacheable record. Breakdown rows are sorted by name so encoding is
// deterministic.
func buildResult(key uint64, out *runner.Outcome) *Result {
	r := &Result{Key: key, Fingerprint: out.Fingerprint, AppLine: out.AppLine}
	if res := out.Res; res != nil {
		r.Elapsed = int64(res.Elapsed)
		for c := stats.Category(0); c < stats.NumCategories; c++ {
			if v := res.Summary.CyclesAll(c); v != 0 {
				r.Breakdown = append(r.Breakdown, BreakdownEntry{Name: c.String(), Cycles: v})
			}
		}
		sort.Slice(r.Breakdown, func(a, b int) bool { return r.Breakdown[a].Name < r.Breakdown[b].Name })
		if res.Err != nil {
			r.Err = res.Err.Error()
		}
	}
	return r
}
