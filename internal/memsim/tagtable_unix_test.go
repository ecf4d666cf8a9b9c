//go:build unix

package memsim

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// vmSizeBytes reads the process's virtual size from /proc/self/status.
func vmSizeBytes(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmSize:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				t.Fatalf("VmSize line %q: %v", line, err)
			}
			return kb << 10
		}
	}
	t.Fatal("no VmSize line in /proc/self/status")
	return 0
}

// paperCache builds a cache at the paper's geometry: a 64 KB tag table.
func paperCache(seed uint64) *Cache { return NewCache(256<<10, 4, 32, sim.NewRNG(seed)) }

// TestTagTablesReleased builds 1 GB of paper-geometry tag tables, drops
// their caches and checks that collecting them gives the mappings back: on
// Linux the process's virtual size falls from its peak by the whole 1 GB,
// less 64 MB. The fall is measured from the peak, not back to the start.
// Under the race detector, whose runtime maps 70-220 MB of its own while
// finalizers run, the tables are built and collected but the fall is not
// measured.
func TestTagTablesReleased(t *testing.T) {
	const caches, tableBytes = 16384, 64 << 10
	mapped := TagBytesMapped()
	live := make([]*Cache, caches)
	for i := range live {
		live[i] = paperCache(uint64(i))
		live[i].Insert(uint64(i), Modified)
	}
	if got := TagBytesMapped() - mapped; got != caches*tableBytes {
		t.Fatalf("TagBytesMapped grew by %d, want %d", got, caches*tableBytes)
	}
	if runtime.GOOS != "linux" || raceEnabled {
		runtime.KeepAlive(live)
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
		return
	}
	peak := vmSizeBytes(t)
	runtime.KeepAlive(live)
	deadline := time.Now().Add(30 * time.Second)
	for {
		runtime.GC()
		fall := peak - vmSizeBytes(t)
		if fall >= caches*tableBytes-64<<20 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("VmSize fell %d MB from its peak after collecting every cache, want at least %d MB: tag tables were not unmapped",
				fall>>20, (caches*tableBytes-64<<20)>>20)
		}
		runtime.Gosched()
	}
}

// TestTagTableSurvivesGC checks that collections release no table still in
// use while the tables around it are released: of 200 caches every seventh
// is kept, and blocks inserted on every page of its table are still
// resident after two collections.
func TestTagTableSurvivesGC(t *testing.T) {
	const caches, sets = 200, 256 << 10 / (4 * 32)
	var kept []*Cache
	for i := 0; i < caches; i++ {
		c := paperCache(uint64(i))
		for b := uint64(0); b < sets; b += 64 { // every 2 KB of table, two per page
			c.Insert(b, Modified)
		}
		if i%7 == 0 {
			kept = append(kept, c)
		}
	}
	runtime.GC()
	runtime.GC()
	for _, c := range kept {
		for b := uint64(0); b < sets; b += 64 {
			if st := c.Lookup(b); st != Modified {
				t.Fatalf("block %d reads %s after two collections, want Modified", b, StateName(st))
			}
		}
		if n := c.Resident(); n != sets/64 {
			t.Fatalf("%d lines resident, want %d", n, sets/64)
		}
	}
}
