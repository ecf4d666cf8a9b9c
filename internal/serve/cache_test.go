package serve

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/vfs"
)

func sampleResult() *Result {
	return &Result{
		Key:         0xabc123,
		Fingerprint: 0xfeedface,
		Elapsed:     987654,
		AppLine:     "maxErr=1.2e-06",
		Err:         "",
		Breakdown: []BreakdownEntry{
			{Name: "Computation", Cycles: 1234.5},
			{Name: "Network Access", Cycles: 99.25},
		},
	}
}

func openCache(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := OpenCache(vfs.OS{}, dir)
	if err != nil {
		t.Fatalf("open cache %s: %v", dir, err)
	}
	return c
}

// cachedLog stores want in a fresh cache under dir and returns the log's
// path, its bytes, and the offset of want's result record.
func cachedLog(t *testing.T, dir string, want *Result) (path string, seg []byte, off int) {
	t.Helper()
	c := openCache(t, dir)
	if err := c.Put(want); err != nil {
		t.Fatalf("put: %v", err)
	}
	c.wal.Close()
	path = logPath(dir)
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off = bytes.Index(seg, encodeRecord(&Record{Type: recResult, Result: want}))
	if off < 0 {
		t.Fatal("result record not in the log")
	}
	return path, seg, off
}

// TestCacheRoundTrip: Put then Get, across a reopen that replays the log,
// returns an identical record and counts a hit; a missing key is a clean
// miss.
func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleResult()
	cachedLog(t, dir, want)
	c := openCache(t, dir)
	defer c.wal.Close()
	got, err := c.Get(want.Key)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if miss, err := c.Get(0x999); miss != nil || err != nil {
		t.Fatalf("absent key: got %+v / %v, want clean miss", miss, err)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("counters hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
	// peek must not move the counters.
	if c.peek(want.Key) == nil {
		t.Fatal("peek missed a stored key")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("peek moved counters: hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

// TestCacheEncodingCanonical: equal results encode to equal record bytes
// (the property that makes cached results comparable byte-for-byte).
func TestCacheEncodingCanonical(t *testing.T) {
	a := encodeRecord(&Record{Type: recResult, Result: sampleResult()})
	b := encodeRecord(&Record{Type: recResult, Result: sampleResult()})
	if !bytes.Equal(a, b) {
		t.Fatal("equal results encoded differently")
	}
}

// TestCacheDetectsCorruption: every single-byte flip and every truncation
// of a stored result record ends as a quarantined record or a clean miss,
// never as a wrong result.
func TestCacheDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	want := sampleResult()
	path, seg, off := cachedLog(t, dir, want)
	reopen := func(what string, b []byte) (quarantined bool) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCache(vfs.OS{}, dir)
		if err != nil {
			t.Fatalf("%s: open: %v", what, err)
		}
		defer c.wal.Close()
		if got, _ := c.Get(want.Key); got != nil {
			t.Fatalf("%s: read back %+v, want a miss", what, got)
		}
		return c.wal.Quarantined() > 0
	}
	quarantined := 0
	for i := off; i < len(seg); i++ {
		bad := append([]byte(nil), seg...)
		bad[i] ^= 0x40
		if reopen(fmt.Sprintf("byte %d flipped", i), bad) {
			quarantined++
		}
	}
	for _, cut := range []int{off, off + 1, (off + len(seg)) / 2, len(seg) - 1} {
		reopen(fmt.Sprintf("cut at byte %d", cut), seg[:cut])
	}
	if quarantined == 0 {
		t.Fatal("no rotten record was ever quarantined")
	}
}

// TestCacheQuarantinesCorruptEntry: a rotten result record is copied to
// log.quarantine (the evidence survives) and its key reads as a
// miss, so the result is recomputed; a second Put restores it durably.
func TestCacheQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	want := sampleResult()
	path, _, _ := cachedLog(t, dir, want)
	rotRecord(t, dir, Record{Type: recResult, Result: want})

	c := openCache(t, dir)
	if got, _ := c.Get(want.Key); got != nil {
		t.Fatalf("rotten record read back as %+v", got)
	}
	if q := c.wal.Quarantined(); q != 1 {
		t.Fatalf("quarantined = %d, want 1", q)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if err := c.Put(want); err != nil {
		t.Fatal(err)
	}
	c.wal.Close()
	c = openCache(t, dir)
	defer c.wal.Close()
	if got, _ := c.Get(want.Key); !reflect.DeepEqual(got, want) {
		t.Fatalf("after re-put and reopen: %+v", got)
	}
}

// TestCacheErrResult: deterministic aborts are cacheable results.
func TestCacheErrResult(t *testing.T) {
	dir := t.TempDir()
	want := sampleResult()
	want.Err = "faults: retry budget exhausted"
	cachedLog(t, dir, want)
	c := openCache(t, dir)
	defer c.wal.Close()
	if got, _ := c.Get(want.Key); got == nil || got.Err != want.Err {
		t.Fatalf("got %+v", got)
	}
}
