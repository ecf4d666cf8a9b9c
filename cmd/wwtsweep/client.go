package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/runner"
	"repro/internal/serve"
)

// The one sweep client, for a wwtserved daemon and the temporary local
// service alike. It is patient: connection errors, 429 load shedding and
// 503 draining back off and retry for up to -server-patience of
// consecutive failure, so a daemon restart mid-sweep is a pause. Once the
// submit is acked the batch is in the service's WAL, and polling just waits.

type client struct {
	base     string        // e.g. http://127.0.0.1:8723
	patience time.Duration // max consecutive failure before giving up
	quiet    bool
	// local marks the temporary in-process service. Its storage failures
	// end the sweep instead of being waited out: nobody will free its disk,
	// and it would rerun every cell whose result it cannot record.
	local bool
}

var httpClient = &http.Client{Timeout: 30 * time.Second}

// sweep runs the whole matrix through the service and returns results in
// submit order. Cancelling ctx abandons the sweep.
func (c *client) sweep(ctx context.Context, specs []runner.Spec, deadline time.Duration) ([]RunResult, error) {
	var sub serve.SubmitResponse
	req := serve.SubmitRequest{Runs: specs, DeadlineMS: deadline.Milliseconds()}
	if err := c.doRetry(ctx, "POST", "/v1/batches", &req, &sub); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	if !c.quiet {
		fmt.Printf("submitted batch %s: %d jobs to %s\n", sub.Batch, len(sub.Jobs), c.base)
	}

	// Poll soon, then back off: a small local sweep finishes in tens of
	// milliseconds, a daemon sweep can take hours.
	poll := 10 * time.Millisecond
	finished := make(map[string]bool)
	for {
		var bs serve.BatchStatus
		if err := c.doRetry(ctx, "GET", "/v1/batches/"+sub.Batch, nil, &bs); err != nil {
			return nil, fmt.Errorf("poll batch %s: %w", sub.Batch, err)
		}
		for _, js := range bs.Jobs {
			if finished[js.ID] || (js.State != serve.StateDone && js.State != serve.StateFailed) {
				continue
			}
			finished[js.ID] = true
			if !c.quiet {
				spec := specs[js.Index]
				status := js.Fingerprint
				switch {
				case js.State == serve.StateFailed:
					status = "FAILED (" + js.FailKind + "): " + js.FailError
				case js.Error != "":
					status = "ABORTED: " + js.Error
				}
				if js.Cached {
					status += " (cached)"
				}
				fmt.Printf("[%d/%d] %s/%s %s (%d ms)\n",
					len(finished), len(bs.Jobs), spec.App, spec.Machine, status, js.WallMS)
			}
		}
		if bs.Done {
			return resultsFromBatch(specs, &bs), nil
		}
		if c.local {
			var st serve.StatsResponse
			if err := c.doRetry(ctx, "GET", "/stats", nil, &st); err != nil {
				return nil, fmt.Errorf("poll stats: %w", err)
			}
			if st.StorageErrs > 0 {
				return nil, fmt.Errorf("%d durable writes of the local service failed (is TMPDIR full?)", st.StorageErrs)
			}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(poll):
		}
		poll = min(2*poll, 200*time.Millisecond)
	}
}

// resultsFromBatch maps the service's batch status onto the results file
// schema.
func resultsFromBatch(specs []runner.Spec, bs *serve.BatchStatus) []RunResult {
	results := make([]RunResult, len(specs))
	for _, js := range bs.Jobs {
		r := RunResult{
			Index:       js.Index,
			Spec:        specs[js.Index],
			JobID:       js.ID,
			Cached:      js.Cached,
			Fingerprint: js.Fingerprint,
			AppLine:     js.AppLine,
			Elapsed:     js.Elapsed,
			WallMS:      js.WallMS,
			Breakdown:   js.Breakdown,
			Error:       js.Error,
		}
		if js.State == serve.StateFailed {
			r.Error = fmt.Sprintf("terminal failure (%s, %d attempts): %s",
				js.FailKind, js.Attempts, js.FailError)
		}
		results[js.Index] = r
	}
	return results
}

// doRetry performs one API call, retrying retryable failures (connection
// errors, 429 queue_full, 503 draining, 507 no_space, storage 500s) with
// exponential backoff until c.patience of consecutive failure has elapsed.
func (c *client) doRetry(ctx context.Context, method, path string, in, out any) error {
	backoff := 100 * time.Millisecond
	var firstFail time.Time
	for {
		err := c.do(ctx, method, path, in, out)
		if err == nil || ctx.Err() != nil {
			return ctx.Err() // nil on success
		}
		if !c.retryable(err) {
			return err
		}
		now := time.Now()
		if firstFail.IsZero() {
			firstFail = now
		}
		if now.Sub(firstFail) > c.patience {
			return fmt.Errorf("gave up after %v of consecutive failure: %w", c.patience, err)
		}
		if !c.quiet {
			fmt.Printf("server unavailable (%v), retrying in %v\n", err, backoff)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, 2*time.Second)
	}
}

func (c *client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		blob, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		apiErr := &serve.APIError{}
		if json.Unmarshal(blob, apiErr) != nil || apiErr.Kind == "" {
			apiErr = &serve.APIError{Kind: "http", Message: string(blob)}
		}
		return &httpError{code: resp.StatusCode, api: apiErr}
	}
	return json.Unmarshal(blob, out)
}

type httpError struct {
	code int
	api  *serve.APIError
}

func (e *httpError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.code, e.api.Error())
}

// retryable reports whether an error is worth waiting out: anything
// transport-level (daemon down or restarting), explicit load shedding and
// drain responses, and storage-degradation refusals — the daemon never acks
// a submit it could not make durable, so a 507 (disk full, queue paused) or
// a typed storage 500 is safe to resubmit once the disk recovers. The
// local service's disk does not recover by itself, so there they are final.
func (c *client) retryable(err error) bool {
	if he, ok := err.(*httpError); ok {
		switch he.code {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return true
		}
		storage := he.code == http.StatusInsufficientStorage ||
			he.code == http.StatusInternalServerError && he.api.Kind == serve.ErrStorage
		return storage && !c.local
	}
	// Non-HTTP errors are transport failures (connection refused/reset
	// while the daemon is down): always worth retrying within patience.
	return true
}
