package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/vfs"
)

func sampleRecords() []Record {
	return []Record{
		{Type: recSubmit, Job: 1, Batch: 1, Index: 0, Key: 0xdeadbeef,
			Spec: []byte(`{"app":"gauss","machine":"mp","procs":4}`), DeadlineMS: 1500},
		{Type: recAttempt, Job: 1, Attempts: 2},
		{Type: recResume, Job: 1, Resume: &snapshot.Snapshot{
			Cycle: 123456, StateHash: 0x0123456789abcdef, Stats: []byte("per-processor accounting")}},
		{Type: recResume, Job: 1},
		{Type: recResult, Result: sampleResult()},
		{Type: recDone, Job: 1, Key: 0xdeadbeef, Cached: true},
		{Type: recFail, Job: 2, Attempts: 3, Kind: "panic", Err: "boom"},
	}
}

func openWAL(t *testing.T, dir string) (*WAL, []Record, RecoveryReport) {
	t.Helper()
	w, recs, rep, err := OpenWAL(vfs.OS{}, dir, 0)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return w, recs, rep
}

// liveSegPath returns the path of the single live segment of a fresh log.
func liveSegPath(t *testing.T, dir string) string {
	t.Helper()
	names := segNames(t, dir)
	if len(names) != 1 {
		t.Fatalf("expected exactly one segment, found %v", names)
	}
	return filepath.Join(dir, walDirName, names[0])
}

func segNames(t *testing.T, dir string) []string {
	t.Helper()
	names, err := vfs.OS{}.ReadDir(filepath.Join(dir, walDirName))
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, n := range names {
		if parseSegName(n) > 0 {
			segs = append(segs, n)
		}
	}
	return segs
}

// TestWALRoundTrip: append every record type, reopen, get them back intact.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, recs, rep := openWAL(t, dir)
	if len(recs) != 0 || rep.TornBytes != 0 || rep.Quarantined != 0 {
		t.Fatalf("fresh log replayed %d records, report %+v", len(recs), rep)
	}
	want := sampleRecords()
	if err := w.Append(want...); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	w2, got, rep := openWAL(t, dir)
	defer w2.Close()
	if rep.TornBytes != 0 || rep.Quarantined != 0 {
		t.Fatalf("clean log reported repairs: %+v", rep)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
	if w2.Records() != int64(len(want)) {
		t.Fatalf("records gauge %d, want %d", w2.Records(), len(want))
	}
}

// TestWALTornTail: a live segment cut mid-record (kill -9 during append)
// replays every complete record, truncates the tail, and accepts appends.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openWAL(t, dir)
	want := sampleRecords()
	if err := w.Append(want...); err != nil {
		t.Fatalf("append: %v", err)
	}
	w.Close()
	seg := liveSegPath(t, dir)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the segment at every possible torn point inside the final record
	// and check recovery each time.
	lastLen := len(encodeRecord(&want[len(want)-1]))
	for cut := len(full) - 1; cut > len(full)-lastLen; cut-- {
		if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, got, rep := openWAL(t, dir)
		if len(got) != len(want)-1 {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), len(want)-1)
		}
		if rep.TornBytes == 0 {
			t.Fatalf("cut %d: reported clean despite torn tail", cut)
		}
		// The log must be appendable again after truncation.
		if err := w.Append(want[len(want)-1]); err != nil {
			t.Fatalf("cut %d: append after truncate: %v", cut, err)
		}
		w.Close()
		_, got2, _ := openWAL(t, dir)
		if !reflect.DeepEqual(got2, want) {
			t.Fatalf("cut %d: after repair+append got %d records, want %d", cut, len(got2), len(want))
		}
	}
}

// TestWALQuarantinesCorruptRecord: a bit-rotted record in the middle of a
// segment is quarantined and skipped; records after it still replay, where
// truncating at the first bad record would have lost them.
func TestWALQuarantinesCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openWAL(t, dir)
	want := sampleRecords()
	if err := w.Append(want...); err != nil {
		t.Fatal(err)
	}
	w.Close()
	seg := liveSegPath(t, dir)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the SECOND record's payload (past its type byte
	// and length prefix, so the framing stays intact).
	off := len(segHeader()) + len(encodeRecord(&want[0])) + 6
	full[off] ^= 0x40
	if err := os.WriteFile(seg, full, 0o644); err != nil {
		t.Fatal(err)
	}

	_, got, rep := openWAL(t, dir)
	if rep.Quarantined != 1 {
		t.Fatalf("quarantined %d records, want 1", rep.Quarantined)
	}
	expect := append(append([]Record{}, want[0]), want[2:]...)
	if !reflect.DeepEqual(got, expect) {
		t.Fatalf("replay after corruption:\n got %+v\nwant %+v", got, expect)
	}
	if _, err := os.Stat(seg + ".quarantine"); err != nil {
		t.Fatalf("no quarantine file: %v", err)
	}
}

// tornFile lands the first half of its first write, then reports a full
// disk.
type tornFile struct {
	vfs.File
	tore bool
}

func (f *tornFile) Write(p []byte) (int, error) {
	if f.tore {
		return f.File.Write(p)
	}
	f.tore = true
	n, _ := f.File.Write(p[:len(p)/2])
	return n, syscall.ENOSPC
}

// TestWALAppendAfterFailedWrite: an append whose write failed halfway is
// cut off the segment, and the next append lands at the cut, so replay
// finds the good record and nothing to quarantine.
func TestWALAppendAfterFailedWrite(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openWAL(t, dir)
	w.f = &tornFile{File: w.f}
	recs := sampleRecords()
	if err := w.Append(recs...); err == nil {
		t.Fatal("torn append reported success")
	}
	if err := w.Append(recs[0]); err != nil {
		t.Fatalf("append after the failed write: %v", err)
	}
	w.Close()
	_, got, rep := openWAL(t, dir)
	if rep.Quarantined != 0 || rep.TornBytes != 0 || !reflect.DeepEqual(got, recs[:1]) {
		t.Fatalf("replayed %d records, report %+v; want the one good record and no repairs", len(got), rep)
	}
}

// TestWALRotation: appends never rotate — however small the segment size
// OpenWAL is given and however many records go in, the log stays one
// segment, and a reopen replays every record in order.
func TestWALRotation(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := OpenWAL(vfs.OS{}, dir, 200)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := uint64(1); i <= 200; i++ {
		r := Record{Type: recSubmit, Job: i, Batch: 1, Index: int(i), Key: i,
			Spec: []byte(`{"app":"gauss","machine":"mp","procs":4}`)}
		if err := w.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, r)
	}
	w.Close()
	if names := segNames(t, dir); len(names) != 1 {
		t.Fatalf("segment files after 200 appends: %v, want one", names)
	}

	w2, got, rep := openWAL(t, dir)
	defer w2.Close()
	if rep.Segments != 1 || rep.TornBytes != 0 || rep.Quarantined != 0 {
		t.Fatalf("reopen report %+v, want one segment and no repairs", rep)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay: got %d records, want %d", len(got), len(want))
	}
}

// TestWALCompactDeletesSegments: compaction collapses a multi-segment log
// into one fresh segment, deletes the predecessors, and recovery afterwards
// sees exactly the compacted set.
func TestWALCompactDeletesSegments(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openWAL(t, dir)
	all := sampleRecords()
	for i := 0; i < 3; i++ {
		if err := w.Append(all...); err != nil {
			t.Fatal(err)
		}
		// Start a new segment, as Append does when it abandons a live
		// segment it cannot repair.
		if err := w.createSegment(w.seg + 1); err != nil {
			t.Fatal(err)
		}
	}
	if names := segNames(t, dir); len(names) < 3 {
		t.Fatalf("setup: segments %v", names)
	}
	compact := all[3:] // keep just the result and terminal records
	if err := w.Compact(compact); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if names := segNames(t, dir); len(names) != 1 {
		t.Fatalf("segment files on disk after compact: %v", names)
	}
	if err := w.Append(Record{Type: recAttempt, Job: 9, Attempts: 1}); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	w.Close()
	_, got, _ := openWAL(t, dir)
	if len(got) != len(compact)+1 {
		t.Fatalf("got %d records, want %d", len(got), len(compact)+1)
	}
	if !reflect.DeepEqual(got[:len(compact)], compact) {
		t.Fatalf("compacted records differ")
	}
}

// TestWALRotationRecoveryEquivalence: a log left as two segments by a
// compaction interrupted after its fresh segment was durable but before it
// deleted the predecessor — the full record stream in segment 1, the
// compacted image in segment 2 — recovers the same job table as the
// one-segment log, and its own compaction leaves one segment.
func TestWALRotationRecoveryEquivalence(t *testing.T) {
	spec := []byte(`{"app":"gauss","machine":"mp","procs":4}`)
	var stream []Record
	for i := uint64(1); i <= 12; i++ {
		stream = append(stream, Record{Type: recSubmit, Job: i, Batch: 1, Index: int(i - 1), Key: i, Spec: spec})
	}
	for i := uint64(1); i <= 4; i++ { // some terminal states
		stream = append(stream, Record{Type: recFail, Job: i, Attempts: 3, Kind: "panic", Err: "x"})
	}
	stream = append(stream, Record{Type: recAttempt, Job: 7, Attempts: 1})

	// recover opens dir, rebuilds the job table (compacting the log) and
	// checks that one segment is left.
	recover := func(dir string, wantSegs int) map[uint64]string {
		w, recs, rep := openWAL(t, dir)
		if rep.Segments != wantSegs {
			t.Fatalf("opened %d segments, want %d", rep.Segments, wantSegs)
		}
		q, cerr := recoverQueue(w, recs, newCache(w, recs))
		if cerr != nil {
			t.Fatalf("compaction: %v", cerr)
		}
		if names := segNames(t, dir); len(names) != 1 {
			t.Fatalf("segments after recovery compaction: %v, want one", names)
		}
		states := make(map[uint64]string)
		for id, j := range q.jobs {
			states[id] = j.state.String()
		}
		w.Close()
		return states
	}

	dir := t.TempDir()
	w, recs, _ := openWAL(t, dir)
	if len(recs) != 0 {
		t.Fatalf("unexpected replay in fresh dir: %+v", recs)
	}
	if err := w.Append(stream...); err != nil {
		t.Fatal(err)
	}
	w.Close()
	seg1 := liveSegPath(t, dir)
	full, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	single := recover(dir, 1)

	// Put segment 1 back beside the compacted segment 2.
	if err := os.WriteFile(seg1, full, 0o644); err != nil {
		t.Fatal(err)
	}
	interrupted := recover(dir, 2)
	if !reflect.DeepEqual(single, interrupted) {
		t.Fatalf("recovery divergence:\none segment %v\ntwo segments %v", single, interrupted)
	}
	if len(interrupted) != 12 {
		t.Fatalf("recovered %d jobs, want 12", len(interrupted))
	}
}

// TestWALRejectsForeignFile: not-a-WAL inputs produce errors, not garbage
// replays.
func TestWALRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, walDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, walDirName, walSegPrefix+"000001")
	if err := os.WriteFile(foreign, []byte("definitely not a wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenWAL(vfs.OS{}, dir, 0); err == nil {
		t.Fatal("opened a non-WAL segment without error")
	} else if !strings.Contains(err.Error(), "magic") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// FuzzScanSegment drives arbitrary bytes after a valid segment header
// through the scanner. It must not panic; the records it returns and the
// ranges it quarantines must tile the input up to goodLen in order, each
// record re-encoding to exactly the bytes it was read from.
func FuzzScanSegment(f *testing.F) {
	var seg []byte
	for _, r := range sampleRecords() {
		seg = append(seg, encodeRecord(&r)...)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)/2])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	hdr := len(segHeader())

	f.Fuzz(func(t *testing.T, body []byte) {
		b := append(segHeader(), body...)
		recs, goodLen, quarantine, torn, err := scanSegment(b)
		if err != nil {
			t.Fatalf("valid header rejected: %v", err)
		}
		if goodLen < hdr || goodLen > len(b) || (!torn && goodLen != len(b)) {
			t.Fatalf("goodLen %d outside [%d, %d] (torn %v)", goodLen, hdr, len(b), torn)
		}
		off := hdr
		for off < goodLen {
			if len(quarantine) > 0 && quarantine[0][0] == off {
				if q := quarantine[0]; q[1] <= q[0] || q[1] > goodLen {
					t.Fatalf("quarantine range %v outside [%d, %d]", q, off, goodLen)
				}
				off, quarantine = quarantine[0][1], quarantine[1:]
				continue
			}
			if len(recs) == 0 {
				t.Fatalf("bytes [%d, %d) are neither a record nor quarantined", off, goodLen)
			}
			enc := encodeRecord(&recs[0])
			if !bytes.HasPrefix(b[off:goodLen], enc) {
				t.Fatalf("record %+v at offset %d does not re-encode to the bytes read", recs[0], off)
			}
			off, recs = off+len(enc), recs[1:]
		}
		if len(recs) > 0 || len(quarantine) > 0 {
			t.Fatalf("%d records and %d quarantine ranges lie past goodLen %d", len(recs), len(quarantine), goodLen)
		}
	})
}

// logRecords returns what a recovery of dir's log would replay, read
// without opening the log.
func logRecords(t *testing.T, dir string) []Record {
	t.Helper()
	var recs []Record
	for _, name := range segNames(t, dir) {
		b, err := os.ReadFile(filepath.Join(dir, walDirName, name))
		if err != nil {
			t.Fatal(err)
		}
		sr, _, _, _, err := scanSegment(b)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, sr...)
	}
	return recs
}

// rotRecord flips a byte in the middle of every copy of rec in dir's log:
// bit rot that leaves the record's framing intact.
func rotRecord(t *testing.T, dir string, rec Record) {
	t.Helper()
	enc := encodeRecord(&rec)
	found := false
	for _, name := range segNames(t, dir) {
		path := filepath.Join(dir, walDirName, name)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := bytes.Index(b, enc); i >= 0; i = bytes.Index(b, enc) {
			b[i+len(enc)/2] ^= 0x40
			found = true
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !found {
		t.Fatalf("record %+v is not in the log", rec)
	}
}
