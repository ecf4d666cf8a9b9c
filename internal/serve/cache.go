package serve

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/vfs"
)

// The result cache is content-addressed: a completed cell's Result is keyed
// by its canonical spec fingerprint (runner.Spec.CacheKey). The simulator is
// deterministic, so the key fully identifies the result — resubmitting a
// spec returns the stored record, bit-identical to a fresh run, marked as a
// cache hit. The cache has no files of its own: each result is a recResult
// record in the write-ahead log, and the cache is the in-memory index that
// replay builds over those records. A rotten result record is quarantined
// with the rest of the log, its key reads as a miss, and the cell is
// recomputed.

// Result is one completed cell's cacheable record: everything the sweep
// results file reports, minus host-local noise (wall time is tracked on the
// job, not the result, precisely so cached and computed results stay
// byte-identical).
type Result struct {
	Key         uint64 // canonical spec fingerprint (the content address)
	Fingerprint uint64 // stats fingerprint (snapshot.Hash of canonical accounting)
	Elapsed     int64  // virtual cycles
	AppLine     string
	// Err records a deterministic application abort (retry starvation,
	// invariant violation, watchdog stall). Aborted configurations are
	// results too — the degradation sweeps chart exactly where setups fall
	// over — and being deterministic they are as cacheable as a success.
	Err string
	// Breakdown is the per-processor-average cycles per non-zero category,
	// sorted by name for canonical encoding.
	Breakdown []BreakdownEntry
}

// BreakdownEntry is one "where is time spent" row.
type BreakdownEntry struct {
	Name   string
	Cycles float64
}

// BreakdownMap returns the breakdown in the map form the JSON API uses.
func (r *Result) BreakdownMap() map[string]float64 {
	if len(r.Breakdown) == 0 {
		return nil
	}
	m := make(map[string]float64, len(r.Breakdown))
	for _, e := range r.Breakdown {
		m[e.Name] = e.Cycles
	}
	return m
}

// Cache is the key→result index over a log's result records.
type Cache struct {
	wal          *WAL // where Put appends
	mu           sync.Mutex
	results      map[uint64]*Result
	hits, misses atomic.Int64
}

// OpenCache opens a result store with a log of its own under dir.
func OpenCache(fsys vfs.FS, dir string) (*Cache, error) {
	wal, recs, _, err := OpenWAL(fsys, dir, 0)
	if err != nil {
		return nil, err
	}
	return newCache(wal, recs), nil
}

// newCache indexes the result records among recs, later records winning.
func newCache(wal *WAL, recs []Record) *Cache {
	c := &Cache{wal: wal, results: make(map[uint64]*Result)}
	for _, r := range recs {
		if r.Type == recResult {
			c.results[r.Result.Key] = r.Result
		}
	}
	return c
}

// Get returns the cached result for key, or nil on a miss, and counts
// which it was. The error is always nil.
func (c *Cache) Get(key uint64) (*Result, error) {
	r := c.peek(key)
	if r != nil {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return r, nil
}

// peek is Get without touching the hit/miss counters, for recovery.
func (c *Cache) peek(key uint64) *Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.results[key]
}

// Put durably logs r and indexes it under its key.
func (c *Cache) Put(r *Result) error {
	if err := c.wal.Append(Record{Type: recResult, Result: r}); err != nil {
		return err
	}
	c.add(r)
	return nil
}

// add indexes a result whose record is already durable.
func (c *Cache) add(r *Result) {
	c.mu.Lock()
	c.results[r.Key] = r
	c.mu.Unlock()
}

// records returns one result record per key, in key order: the head of a
// compacted log.
func (c *Cache) records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	recs := make([]Record, 0, len(c.results))
	for _, r := range c.results {
		recs = append(recs, Record{Type: recResult, Result: r})
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].Result.Key < recs[b].Result.Key })
	return recs
}

// Hits and Misses expose the serving counters.
func (c *Cache) Hits() int64   { return c.hits.Load() }
func (c *Cache) Misses() int64 { return c.misses.Load() }
