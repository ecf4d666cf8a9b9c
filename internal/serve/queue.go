package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/snapshot"
)

// queue is the in-memory job table, authoritative only as a projection of
// the WAL: every transition that recovery must reproduce is appended (and
// fsynced) before the in-memory state changes. Jobs move
// pending → running → {done, failed}, with running falling back to pending
// on retry, preemption, or a crash (running is deliberately not a WAL
// state: a job that was mid-run when the process died recovers as pending
// and simply reruns — determinism plus the result cache make that
// idempotent, so nothing is lost and nothing completes twice).

type jobState uint8

const (
	jobPending jobState = iota
	jobRunning
	jobDone
	jobFailed
)

func (s jobState) String() string {
	switch s {
	case jobPending:
		return StatePending
	case jobRunning:
		return StateRunning
	case jobDone:
		return StateDone
	default:
		return StateFailed
	}
}

type job struct {
	id       uint64
	batch    uint64
	index    int
	key      uint64
	spec     runner.Spec
	specJSON []byte
	deadline time.Duration // per-attempt wall-clock bound; 0 = server default

	state     jobState
	attempts  int       // failed attempts so far
	preempts  int       // deadline preemptions (not persisted; resets on restart)
	notBefore time.Time // retry backoff gate
	wallMS    int64     // accumulated attempt wall time

	// resume is the snapshot the last preemption took, if any; the next
	// attempt replays through it.
	resume *snapshot.Snapshot
	// resumedFrom is set when a finished attempt verifiably replayed
	// through a resume point (Outcome.Verified at that cycle).
	resumedFrom int64

	cached             bool
	result             *Result
	failKind, failText string
}

type queue struct {
	mu        sync.Mutex
	wal       *WAL
	cache     *Cache // indexes the results complete logs
	jobs      map[uint64]*job
	pending   []uint64            // FIFO of pending job ids
	batches   map[uint64][]uint64 // batch id → job ids in submit order
	nextJob   uint64
	nextBatch uint64
	running   int
	done      int64
	failed    int64
}

// recoverQueue rebuilds the job table from replayed WAL records, attaches
// each done job's result from the cache, and compacts the log down to the
// cache's results plus the minimal job records a future recovery needs. A
// failed compaction is reported but not fatal: the uncompacted log replays
// to the same job table, so the queue opens degraded rather than
// refusing to serve.
func recoverQueue(wal *WAL, recs []Record, cache *Cache) (q *queue, compactErr error) {
	q = &queue{
		wal:     wal,
		cache:   cache,
		jobs:    make(map[uint64]*job),
		batches: make(map[uint64][]uint64),
	}
	for _, r := range recs {
		switch r.Type {
		case recSubmit:
			j := &job{
				id:       r.Job,
				batch:    r.Batch,
				index:    r.Index,
				key:      r.Key,
				specJSON: append([]byte(nil), r.Spec...),
				deadline: time.Duration(r.DeadlineMS) * time.Millisecond,
			}
			if err := json.Unmarshal(r.Spec, &j.spec); err != nil {
				// A submit record that round-trips to garbage should be
				// impossible (specs are validated before the append), but a
				// typed terminal failure beats wedging recovery.
				j.state, j.failKind, j.failText = jobFailed, "bad_spec", err.Error()
			} else {
				// The key is this build's, not the record's: a record written
				// before a cacheKeyVersion bump must miss the cache (and be
				// recomputed), not find whatever its old key aliased.
				j.key = j.spec.CacheKey()
			}
			// An older build's compaction, interrupted, left the same submit
			// in two segments, and migrating them replays it twice; the
			// later record wins, but the job must not be listed in its batch
			// twice.
			if _, dup := q.jobs[r.Job]; !dup {
				q.batches[r.Batch] = append(q.batches[r.Batch], r.Job)
			}
			q.jobs[r.Job] = j
			if r.Job >= q.nextJob {
				q.nextJob = r.Job + 1
			}
			if r.Batch >= q.nextBatch {
				q.nextBatch = r.Batch + 1
			}
		case recAttempt:
			if j := q.jobs[r.Job]; j != nil {
				j.attempts = r.Attempts
			}
		case recResume:
			if j := q.jobs[r.Job]; j != nil {
				j.resume = r.Resume
			}
		case recDone:
			if j := q.jobs[r.Job]; j != nil && j.state != jobFailed {
				j.state, j.cached = jobDone, r.Cached
			}
		case recFail:
			if j := q.jobs[r.Job]; j != nil && j.state != jobDone {
				j.state = jobFailed
				j.attempts, j.failKind, j.failText = r.Attempts, r.Kind, r.Err
			}
		}
	}

	// Materialize done results from the cache. A done record is only ever
	// appended after its result record, so a missing result means that
	// record was quarantined (or never written, by an older build that kept
	// results in files) — self-heal by recomputing.
	ids := make([]uint64, 0, len(q.jobs))
	for id := range q.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		j := q.jobs[id]
		if j.state == jobDone {
			if j.result = cache.peek(j.key); j.result == nil {
				j.state, j.cached, j.resume = jobPending, false, nil
			}
		}
		switch j.state {
		case jobDone:
			q.done++
		case jobFailed:
			q.failed++
		default:
			j.state = jobPending // includes any would-be running
			q.pending = append(q.pending, id)
		}
	}

	if err := wal.Compact(append(cache.records(), q.liveRecords()...)); err != nil {
		compactErr = fmt.Errorf("wal compaction: %w", err)
	}
	return q, compactErr
}

// liveRecords flattens the current job table into the minimal WAL image:
// one submit per job plus its surviving attempt/resume/terminal state.
// Caller holds no lock (only used during single-threaded recovery).
func (q *queue) liveRecords() []Record {
	var ids []uint64
	for id := range q.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	var recs []Record
	for _, id := range ids {
		j := q.jobs[id]
		recs = append(recs, Record{
			Type: recSubmit, Job: j.id, Batch: j.batch, Index: j.index,
			Key: j.key, Spec: j.specJSON, DeadlineMS: int64(j.deadline / time.Millisecond),
		})
		if j.attempts > 0 && j.state != jobFailed {
			recs = append(recs, Record{Type: recAttempt, Job: j.id, Attempts: j.attempts})
		}
		if j.resume != nil && j.state != jobDone && j.state != jobFailed {
			recs = append(recs, Record{Type: recResume, Job: j.id, Resume: j.resume})
		}
		switch j.state {
		case jobDone:
			recs = append(recs, Record{Type: recDone, Job: j.id, Key: j.key, Cached: j.cached})
		case jobFailed:
			recs = append(recs, Record{Type: recFail, Job: j.id, Attempts: j.attempts, Kind: j.failKind, Err: j.failText})
		}
	}
	return recs
}

// submit durably enqueues a batch. The WAL append (one fsync for the whole
// batch) happens before any job becomes visible; an error leaves the queue
// unchanged.
func (q *queue) submit(specs []runner.Spec, deadline time.Duration) (uint64, []*job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	batch := q.nextBatch
	jobs := make([]*job, len(specs))
	recs := make([]Record, len(specs))
	for i, sp := range specs {
		blob, err := json.Marshal(&sp)
		if err != nil {
			return 0, nil, err
		}
		j := &job{
			id: q.nextJob + uint64(i), batch: batch, index: i,
			key: sp.CacheKey(), spec: sp, specJSON: blob, deadline: deadline,
		}
		jobs[i] = j
		recs[i] = Record{
			Type: recSubmit, Job: j.id, Batch: batch, Index: i,
			Key: j.key, Spec: blob, DeadlineMS: int64(deadline / time.Millisecond),
		}
	}
	if err := q.wal.Append(recs...); err != nil {
		return 0, nil, err
	}
	q.nextBatch++
	q.nextJob += uint64(len(specs))
	for _, j := range jobs {
		q.jobs[j.id] = j
		q.pending = append(q.pending, j.id)
		q.batches[batch] = append(q.batches[batch], j.id)
	}
	return batch, jobs, nil
}

// claim pops the first pending job whose backoff gate has passed, marking
// it running. Returns nil when nothing is claimable right now.
func (q *queue) claim(now time.Time) *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, id := range q.pending {
		j := q.jobs[id]
		if j.notBefore.After(now) {
			continue
		}
		q.pending = append(q.pending[:i], q.pending[i+1:]...)
		j.state = jobRunning
		q.running++
		return j
	}
	return nil
}

// complete durably finishes a job. A fresh result is logged in the same
// append as the done record, ahead of it; a cache hit's result is in the
// log already.
func (q *queue) complete(j *job, res *Result, cached bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	recs := []Record{{Type: recDone, Job: j.id, Key: j.key, Cached: cached}}
	if !cached {
		recs = append([]Record{{Type: recResult, Result: res}}, recs...)
	}
	if err := q.wal.Append(recs...); err != nil {
		return err
	}
	if !cached {
		q.cache.add(res) // before the job reads as done, so a resubmit hits
	}
	// A finished job's resume point is dead weight: its stats can run to
	// hundreds of KB.
	j.state, j.result, j.cached, j.resume = jobDone, res, cached, nil
	q.running--
	q.done++
	return nil
}

// fail durably records a terminal failure.
func (q *queue) fail(j *job, kind, text string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.wal.Append(Record{Type: recFail, Job: j.id, Attempts: j.attempts, Kind: kind, Err: text}); err != nil {
		return err
	}
	j.state, j.failKind, j.failText, j.resume = jobFailed, kind, text, nil
	q.running--
	q.failed++
	return nil
}

// requeueRetry returns a failed attempt to the queue with its new attempt
// count persisted and an exponential-backoff gate. clearResume also
// persists dropping the job's resume point (a replay divergence means that
// point can never verify again — the job restarts from scratch).
func (q *queue) requeueRetry(j *job, backoff time.Duration, clearResume bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	att := j.attempts + 1
	recs := []Record{{Type: recAttempt, Job: j.id, Attempts: att}}
	if clearResume {
		recs = append(recs, Record{Type: recResume, Job: j.id})
	}
	if err := q.wal.Append(recs...); err != nil {
		// Nothing durable changed, so nothing in memory may either.
		return err
	}
	j.attempts = att
	if clearResume {
		j.resume = nil
	}
	j.state = jobPending
	j.notBefore = time.Now().Add(backoff)
	q.running--
	q.pending = append(q.pending, j.id)
	return nil
}

// unclaim returns a running job to pending without touching the WAL — the
// degraded path when the durable transition itself could not be written
// (ENOSPC, failed fsync). Legal because "running" is not a WAL state:
// recovery would have treated the job as pending anyway, so the in-memory
// table just converges to what a crash-and-reopen would produce. The
// backoff gate keeps a storage outage from spinning the workers.
func (q *queue) unclaim(j *job, backoff time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j.state != jobRunning {
		return
	}
	j.state = jobPending
	j.notBefore = time.Now().Add(backoff)
	q.running--
	q.pending = append(q.pending, j.id)
}

// noteRun accumulates per-attempt wall time and, when the attempt
// verifiably replayed through a resume point, records that cycle.
func (q *queue) noteRun(j *job, wallMS, resumedFrom int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j.wallMS += wallMS
	if resumedFrom > 0 {
		j.resumedFrom = resumedFrom
	}
}

// requeuePreempt returns a deadline- or drain-preempted job to the queue
// with its resume point persisted, so the next attempt (possibly in a
// future process) resumes instead of restarting.
func (q *queue) requeuePreempt(j *job, snap *snapshot.Snapshot, countPreempt bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.wal.Append(Record{Type: recResume, Job: j.id, Resume: snap}); err != nil {
		return err
	}
	j.resume = snap
	if countPreempt {
		j.preempts++
	}
	j.state = jobPending
	q.running--
	q.pending = append(q.pending, j.id)
	return nil
}

// depth is pending+running, the quantity admission control bounds.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending) + q.running
}

func (q *queue) counts() (pending, running int, done, failed int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending), q.running, q.done, q.failed
}

func (j *job) status() JobStatus {
	s := JobStatus{
		Index:       j.index,
		ID:          fmt.Sprintf("j%d", j.id),
		Key:         fmt.Sprintf("%016x", j.key),
		State:       j.state.String(),
		Cached:      j.cached,
		Attempts:    j.attempts,
		Preemptions: j.preempts,
		ResumedFrom: j.resumedFrom,
		WallMS:      j.wallMS,
	}
	if j.resume != nil && (j.state == jobPending || j.state == jobRunning) {
		s.ResumeCycle = j.resume.Cycle
	}
	if r := j.result; r != nil {
		s.Fingerprint = fmt.Sprintf("%#x", r.Fingerprint)
		s.AppLine = r.AppLine
		s.Elapsed = r.Elapsed
		s.Breakdown = r.BreakdownMap()
		s.Error = r.Err
	}
	if j.state == jobFailed {
		s.FailKind, s.FailError = j.failKind, j.failText
	}
	return s
}

// batchStatus snapshots one batch, jobs in submit order.
func (q *queue) batchStatus(batch uint64) (*BatchStatus, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	ids, ok := q.batches[batch]
	if !ok {
		return nil, false
	}
	bs := &BatchStatus{
		Batch:  fmt.Sprintf("b%d", batch),
		Done:   true,
		Counts: map[string]int{},
	}
	for _, id := range ids {
		j := q.jobs[id]
		st := j.status()
		bs.Counts[st.State]++
		if j.state != jobDone && j.state != jobFailed {
			bs.Done = false
		}
		bs.Jobs = append(bs.Jobs, st)
	}
	return bs, true
}

func (q *queue) jobStatus(id uint64) (JobStatus, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}
