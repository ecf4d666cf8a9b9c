package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runner"
	"repro/internal/vfs"
)

// Config sizes one Server.
type Config struct {
	// Dir is the service's data directory. It holds only wal/: queue
	// state, results and preempted jobs' resume points are all log records.
	Dir string
	// FS is the filesystem every durable artifact goes through. nil means
	// the host filesystem; tests and the -fault-fsplan flag install a
	// vfs.Faulty here.
	FS vfs.FS
	// WALSegmentBytes is the log rotation threshold (default 1 MiB).
	WALSegmentBytes int64
	// Jobs is the worker pool size (concurrent runs). Default 1.
	Jobs int
	// Deprecated: ignored; dispatch is serial.
	RunWorkers int
	// MaxQueue bounds pending+running jobs; a batch that would exceed it is
	// shed with a typed 429. Default 4096.
	MaxQueue int
	// MaxRetries bounds attempts retried after host-level failures (panic,
	// I/O error, replay divergence) before a typed terminal failure.
	// Default 3.
	MaxRetries int
	// MaxPreempts bounds deadline preemptions per job — a cell that cannot
	// finish inside the deadline even resuming from checkpoints eventually
	// fails terminally instead of cycling forever. Default 8.
	MaxPreempts int
	// Deadline is the default per-attempt wall-clock bound (0 = none);
	// batches may override it per submit.
	Deadline time.Duration
	// Backoff is the base retry backoff, doubling per attempt. Default
	// 250ms.
	Backoff time.Duration
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Server is the sweep service: a WAL-backed queue, a content-addressed
// result cache, a supervised worker pool, and the HTTP API over them.
type Server struct {
	cfg   Config
	wal   *WAL
	q     *queue
	cache *Cache
	start time.Time

	stop     chan struct{}
	draining atomic.Bool
	wg       sync.WaitGroup

	mu      sync.Mutex
	running map[uint64]*runner.Interrupt

	retries, preemptions, panics atomic.Int64

	// storagePaused flips on when a durable write fails with ENOSPC:
	// admission returns typed 507s until a WAL probe succeeds, instead of
	// acking submits the log cannot hold. storageErrs counts every durable
	// write failure the degraded paths absorbed.
	storagePaused atomic.Bool
	storageErrs   atomic.Int64

	// runJob is the attempt executor, swappable by tests to inject
	// failures; the default is runner.Run.
	runJob func(spec runner.Spec, opts runner.Options) (*runner.Outcome, error)
}

// New opens (or creates) the service state under cfg.Dir, recovering the
// queue from the WAL: jobs that were pending or mid-run when the previous
// process died are pending again, completed jobs keep their results, and
// the log is compacted. No job runs until Start.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: Config.Dir is required")
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 1
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4096
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	if cfg.MaxPreempts <= 0 {
		cfg.MaxPreempts = 8
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 250 * time.Millisecond
	}
	if cfg.FS == nil {
		cfg.FS = vfs.OS{}
	}
	if cfg.WALSegmentBytes <= 0 {
		cfg.WALSegmentBytes = DefaultSegmentBytes
	}

	wal, recs, rep, err := OpenWAL(cfg.FS, cfg.Dir, cfg.WALSegmentBytes)
	if err != nil {
		return nil, err
	}
	cache := newCache(wal, recs)
	q, compactErr := recoverQueue(wal, recs, cache)
	s := &Server{
		cfg:     cfg,
		wal:     wal,
		q:       q,
		cache:   cache,
		start:   time.Now(),
		stop:    make(chan struct{}),
		running: make(map[uint64]*runner.Interrupt),
		runJob:  runner.Run,
	}
	if rep.TornBytes > 0 {
		s.logf("wal: discarded %d-byte torn tail (crash mid-append)", rep.TornBytes)
	}
	if rep.Quarantined > 0 {
		s.logf("wal: quarantined %d corrupt records (see *.quarantine)", rep.Quarantined)
	}
	if compactErr != nil {
		// Uncompacted segments replay identically; serve degraded.
		s.logf("wal: %v (continuing uncompacted)", compactErr)
		s.noteStorage(compactErr)
	}
	if p, r, d, f := q.counts(); p+int(d)+int(f) > 0 {
		s.logf("recovered %d pending, %d done, %d failed jobs (running at crash: requeued)", p, d, f)
		_ = r
	}
	return s, nil
}

// noteStorage records a durable-write failure and, on ENOSPC, pauses
// admission until a probe shows the disk breathing again.
func (s *Server) noteStorage(err error) {
	s.storageErrs.Add(1)
	if vfs.IsNoSpace(err) {
		if s.storagePaused.CompareAndSwap(false, true) {
			s.logf("storage: out of space; pausing admission (%v)", err)
		}
	}
}

// storageOK clears the paused flag after a successful durable write.
func (s *Server) storageOK() {
	if s.storagePaused.CompareAndSwap(true, false) {
		s.logf("storage: durable writes succeeding again; admission resumed")
	}
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Jobs; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Drain gracefully stops the service: admission closes (readyz goes 503,
// submits get a typed 503), every in-flight job is interrupted so it
// snapshots its next quantum boundary and parks as pending with that resume
// point in the WAL, and workers exit. Safe to call once; returns when the pool
// has drained or the timeout elapsed.
func (s *Server) Drain(timeout time.Duration) error {
	s.draining.Store(true)
	s.mu.Lock()
	for _, intr := range s.running {
		intr.Fire()
	}
	s.mu.Unlock()
	close(s.stop)

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("serve: drain timed out after %v", timeout)
	}
}

// Close releases the WAL. Call after Drain (or on a failed startup path).
func (s *Server) Close() error { return s.wal.Close() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) trackRunning(id uint64, intr *runner.Interrupt) {
	s.mu.Lock()
	s.running[id] = intr
	s.mu.Unlock()
}

func (s *Server) untrackRunning(id uint64) {
	s.mu.Lock()
	delete(s.running, id)
	s.mu.Unlock()
}

// --- HTTP API ---

// Handler returns the service's HTTP API:
//
//	POST /v1/batches        submit a batch of specs
//	GET  /v1/batches/{id}   batch status + per-job results
//	GET  /v1/jobs/{id}      one job's status
//	GET  /healthz           process liveness (always 200 while serving)
//	GET  /readyz            200 when accepting work, 503 while draining
//	GET  /stats             queue depth, retry/preemption counts, cache hit rate
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batches", s.handleSubmit)
	mux.HandleFunc("GET /v1/batches/{id}", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeErr(w, http.StatusServiceUnavailable, &APIError{Kind: ErrDraining, Message: "draining to checkpoints"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, &APIError{Kind: ErrDraining, Message: "draining to checkpoints"})
		return
	}
	if s.storagePaused.Load() {
		// Probe before refusing: space may have been freed since the pause.
		if err := s.wal.Probe(); err != nil {
			writeErr(w, http.StatusInsufficientStorage, &APIError{
				Kind: ErrNoSpace, Message: "queue paused: durable storage is out of space",
			})
			return
		}
		s.storageOK()
	}
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, &APIError{Kind: ErrBadBody, Message: err.Error()})
		return
	}
	if len(req.Runs) == 0 {
		writeErr(w, http.StatusBadRequest, &APIError{Kind: ErrBadSpec, Message: "empty batch"})
		return
	}
	for i := range req.Runs {
		if err := req.Runs[i].Validate(); err != nil {
			writeErr(w, http.StatusBadRequest, &APIError{
				Kind: ErrBadSpec, Message: fmt.Sprintf("run %d: %v", i, err),
			})
			return
		}
	}
	// Admission control: shed whole batches that would blow the queue
	// bound. (Checked against current depth; concurrent submits may
	// overshoot by a batch — the bound is load shedding, not accounting.)
	if depth := s.q.depth(); depth+len(req.Runs) > s.cfg.MaxQueue {
		writeErr(w, http.StatusTooManyRequests, &APIError{
			Kind:       ErrQueueFull,
			Message:    fmt.Sprintf("queue depth %d + batch %d exceeds bound %d", depth, len(req.Runs), s.cfg.MaxQueue),
			QueueDepth: depth,
			QueueLimit: s.cfg.MaxQueue,
		})
		return
	}
	batch, jobs, err := s.q.submit(req.Runs, time.Duration(req.DeadlineMS)*time.Millisecond)
	if err != nil {
		// The WAL append failed, so nothing was acked and nothing is
		// visible: the client must retry or give up, never assume acceptance.
		s.noteStorage(err)
		if vfs.IsNoSpace(err) {
			writeErr(w, http.StatusInsufficientStorage, &APIError{Kind: ErrNoSpace, Message: err.Error()})
		} else {
			writeErr(w, http.StatusInternalServerError, &APIError{Kind: ErrStorage, Message: err.Error()})
		}
		return
	}
	s.storageOK()
	resp := SubmitResponse{Batch: fmt.Sprintf("b%d", batch)}
	for _, j := range jobs {
		resp.Jobs = append(resp.Jobs, JobRef{
			Index: j.index, ID: fmt.Sprintf("j%d", j.id), Key: fmt.Sprintf("%016x", j.key),
		})
	}
	s.logf("batch b%d: %d jobs accepted", batch, len(jobs))
	writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	id, ok := parseID(r.PathValue("id"), "b")
	if !ok {
		writeErr(w, http.StatusNotFound, &APIError{Kind: ErrNotFound, Message: "malformed batch id"})
		return
	}
	bs, ok := s.q.batchStatus(id)
	if !ok {
		writeErr(w, http.StatusNotFound, &APIError{Kind: ErrNotFound, Message: "no such batch"})
		return
	}
	writeJSON(w, http.StatusOK, bs)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, ok := parseID(r.PathValue("id"), "j")
	if !ok {
		writeErr(w, http.StatusNotFound, &APIError{Kind: ErrNotFound, Message: "malformed job id"})
		return
	}
	js, ok := s.q.jobStatus(id)
	if !ok {
		writeErr(w, http.StatusNotFound, &APIError{Kind: ErrNotFound, Message: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, &js)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	pending, running, done, failed := s.q.counts()
	hits, misses := s.cache.Hits(), s.cache.Misses()
	var rate float64
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	resp := &StatsResponse{
		Pending:        pending,
		Running:        running,
		Done:           done,
		Failed:         failed,
		Retries:        s.retries.Load(),
		Preemptions:    s.preemptions.Load(),
		Panics:         s.panics.Load(),
		CacheHits:      hits,
		CacheMisses:    misses,
		HitRate:        rate,
		QueueLimit:     s.cfg.MaxQueue,
		Draining:       s.draining.Load(),
		UptimeMS:       time.Since(s.start).Milliseconds(),
		WALRecords:     s.wal.Records(),
		WALSegments:    s.wal.Segments(),
		WALQuarantined: s.wal.Quarantined(),
		StorageErrs:    s.storageErrs.Load(),
		StoragePaused:  s.storagePaused.Load(),
	}
	if fc, ok := s.cfg.FS.(interface{ FaultCount() int64 }); ok {
		resp.FSFaults = fc.FaultCount()
	}
	writeJSON(w, http.StatusOK, resp)
}

func parseID(s, prefix string) (uint64, bool) {
	if !strings.HasPrefix(s, prefix) {
		return 0, false
	}
	v, err := strconv.ParseUint(s[len(prefix):], 10, 64)
	return v, err == nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, e *APIError) {
	writeJSON(w, code, e)
}
