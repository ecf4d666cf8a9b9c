// Package serve implements wwtserved: a fault-tolerant sweep service that
// accepts batches of runner.Spec cells over HTTP/JSON and executes them with
// durability guarantees a one-shot CLI cannot offer.
//
// The design leans on one property the rest of the repo already earned: the
// simulator is deterministic, so a run's identity is its canonical spec
// fingerprint (runner.Spec.CacheKey) and identical keys provably yield
// bit-identical stats. That makes three robustness mechanisms sound by
// construction:
//
//   - a write-ahead-logged job queue (wal.go, queue.go): every submitted job
//     is durable before the client is acked, and kill -9 + restart recovers
//     exactly the incomplete set — no lost jobs, no duplicated results;
//   - a content-addressed result cache (cache.go): each completed cell is a
//     result record in the same log, indexed in memory under its spec key,
//     so resubmission is served with a cache-hit marker and a bit-identical
//     fingerprint;
//   - supervised execution (supervisor.go): per-job panic isolation,
//     wall-clock deadlines that preempt a job to a resume point logged in
//     the WAL and requeue it to resume (replay-verified) instead of
//     restarting, and bounded retries with exponential backoff ending in a
//     typed terminal-failure record.
//
// This file defines the HTTP/JSON wire types shared by the server and the
// wwtsweep -server thin client.
package serve

import "repro/internal/runner"

// SubmitRequest is the body of POST /v1/batches: a batch of run specs, in
// the same shape as a wwtsweep matrix file.
type SubmitRequest struct {
	Runs []runner.Spec `json:"runs"`
	// DeadlineMS, when positive, bounds each job attempt's wall-clock time;
	// a job that exceeds it is preempted and requeued to resume. Zero
	// uses the server's default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// JobRef identifies one accepted job in a submit response.
type JobRef struct {
	Index int    `json:"index"` // position in SubmitRequest.Runs
	ID    string `json:"id"`    // "j<n>"
	Key   string `json:"key"`   // canonical spec fingerprint, hex
}

// SubmitResponse acknowledges a durably enqueued batch. By the time the
// client reads it, every job has been written and fsynced to the WAL: a
// daemon crash after the ack cannot lose the batch.
type SubmitResponse struct {
	Batch string   `json:"batch"` // "b<n>"
	Jobs  []JobRef `json:"jobs"`
}

// Job states reported by the API.
const (
	StatePending = "pending"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobStatus is one job's externally visible state.
type JobStatus struct {
	Index int    `json:"index"`
	ID    string `json:"id"`
	Key   string `json:"key"`
	State string `json:"state"`

	// Cached marks a result served from the content-addressed cache rather
	// than computed by this job.
	Cached bool `json:"cached,omitempty"`
	// Attempts counts failed attempts so far; Preemptions counts deadline
	// preemptions. ResumeCycle is the cycle of the resume point the next
	// attempt replays through (0 = from scratch); ResumedFrom is the resume
	// point a finished job verifiably replayed through.
	Attempts    int   `json:"attempts,omitempty"`
	Preemptions int   `json:"preemptions,omitempty"`
	ResumeCycle int64 `json:"resume_cycle,omitempty"`
	ResumedFrom int64 `json:"resumed_from,omitempty"`

	// Result fields, present when State is done.
	Fingerprint string             `json:"fingerprint,omitempty"`
	AppLine     string             `json:"app_line,omitempty"`
	Elapsed     int64              `json:"elapsed_cycles,omitempty"`
	Breakdown   map[string]float64 `json:"breakdown,omitempty"`
	WallMS      int64              `json:"wall_ms,omitempty"`
	// Error is a deterministic application abort (starvation, invariant
	// violation) recorded as data — the run completed, the simulated
	// configuration fell over. Such cells are cached like any other result.
	Error string `json:"error,omitempty"`

	// Terminal failure record, present when State is failed: FailKind
	// classifies the failure ("panic", "harness", "divergence", "deadline",
	// "bad_spec"), FailError carries the last error text.
	FailKind  string `json:"fail_kind,omitempty"`
	FailError string `json:"fail_error,omitempty"`
}

// BatchStatus is the response of GET /v1/batches/{id}.
type BatchStatus struct {
	Batch  string         `json:"batch"`
	Done   bool           `json:"done"` // every job done or failed
	Counts map[string]int `json:"counts"`
	Jobs   []JobStatus    `json:"jobs"`
}

// StatsResponse is the response of GET /stats.
type StatsResponse struct {
	Pending     int     `json:"pending"`
	Running     int     `json:"running"`
	Done        int64   `json:"done"`
	Failed      int64   `json:"failed"`
	Retries     int64   `json:"retries"`
	Preemptions int64   `json:"preemptions"`
	Panics      int64   `json:"panics"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	HitRate     float64 `json:"hit_rate"`
	QueueLimit  int     `json:"queue_limit"`
	Draining    bool    `json:"draining"`
	UptimeMS    int64   `json:"uptime_ms"`
	WALRecords  int64   `json:"wal_records"`

	// Storage health: WAL records (result records included) quarantined at
	// recovery, durable-write failures absorbed by the degraded paths,
	// whether admission is paused on ENOSPC, and — when the server runs
	// under an injected fault plan — how many faults fired.
	WALQuarantined int64 `json:"wal_quarantined,omitempty"`
	StorageErrs    int64 `json:"storage_errs,omitempty"`
	StoragePaused  bool  `json:"storage_paused,omitempty"`
	FSFaults       int64 `json:"fs_faults,omitempty"`
}

// Error kinds returned in APIError.Kind.
const (
	ErrQueueFull = "queue_full" // 429: admission control shed the batch
	ErrBadSpec   = "bad_spec"   // 400: a spec failed validation
	ErrDraining  = "draining"   // 503: server is draining to checkpoints
	ErrNotFound  = "not_found"  // 404
	ErrBadBody   = "bad_body"   // 400: body is not valid JSON
	ErrNoSpace   = "no_space"   // 507: durable storage out of space, queue paused
	ErrStorage   = "storage"    // 500: a durable write failed; the submit was NOT acked
)

// APIError is the typed error body every non-2xx response carries.
type APIError struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// Queue depth and limit, set when Kind is queue_full so clients can
	// size their backoff.
	QueueDepth int `json:"queue_depth,omitempty"`
	QueueLimit int `json:"queue_limit,omitempty"`
}

func (e *APIError) Error() string { return "serve: " + e.Kind + ": " + e.Message }
