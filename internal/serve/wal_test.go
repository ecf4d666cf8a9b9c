package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// logPath returns the path of dir's log.
func logPath(dir string) string { return filepath.Join(dir, walDirName, walLogName) }

// walFiles returns the names of the files in dir's wal directory.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := vfs.OS{}.ReadDir(filepath.Join(dir, walDirName))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// onlyLog fails the test unless dir's wal directory holds the log alone.
func onlyLog(t *testing.T, dir string) {
	t.Helper()
	if names := walFiles(t, dir); !reflect.DeepEqual(names, []string{walLogName}) {
		t.Fatalf("wal directory holds %v, want only %s", names, walLogName)
	}
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

// TestWALTornTail: a log cut mid-record (kill -9 during append)
// replays every complete record, truncates the tail, and accepts appends.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openWAL(t, dir)
	want := sampleRecords()
	if err := w.Append(want...); err != nil {
		t.Fatalf("append: %v", err)
	}
	w.Close()
	seg := logPath(dir)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the log at every possible torn point inside the final record
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

// TestWALQuarantinesCorruptRecord: a bit-rotted record in the middle of the
// log is copied to log.quarantine and skipped; records after it still
// replay, where truncating at the first bad record would have lost them.
func TestWALQuarantinesCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openWAL(t, dir)
	want := sampleRecords()
	if err := w.Append(want...); err != nil {
		t.Fatal(err)
	}
	w.Close()
	seg := logPath(dir)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the SECOND record's payload (past its type byte
	// and length prefix, so the framing stays intact).
	start := len(segHeader()) + len(encodeRecord(&want[0]))
	off := start + 6
	full[off] ^= 0x40
	rotten := append([]byte(nil), full[start:start+len(encodeRecord(&want[1]))]...)
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
	if q, err := os.ReadFile(seg + ".quarantine"); err != nil || !bytes.Equal(q, rotten) {
		t.Fatalf("quarantine file holds %d bytes (%v), want the %d rotten record bytes", len(q), err, len(rotten))
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
// cut off the log, and the next append lands at the cut, so replay
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
// OpenWAL is given and however many records go in, the log stays one file,
// and a reopen replays every record in order.
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
	onlyLog(t, dir)

	w2, got, rep := openWAL(t, dir)
	defer w2.Close()
	if rep.TornBytes != 0 || rep.Quarantined != 0 {
		t.Fatalf("reopen report %+v, want no repairs", rep)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay: got %d records, want %d", len(got), len(want))
	}
}

// TestWALCompactReplacesLog: compaction replaces the log with the compacted
// set, truncating a stray log.tmp a crashed compaction left, appends
// continue after it, and recovery afterwards sees exactly the compacted set
// plus the appends.
func TestWALCompactReplacesLog(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openWAL(t, dir)
	all := sampleRecords()
	for i := 0; i < 3; i++ {
		if err := w.Append(all...); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(logPath(dir)+".tmp", bytes.Repeat([]byte{0xEE}, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	compact := all[3:] // keep just the result and terminal records
	if err := w.Compact(compact); err != nil {
		t.Fatalf("compact: %v", err)
	}
	onlyLog(t, dir)
	if got := logRecords(t, dir); !reflect.DeepEqual(got, compact) {
		t.Fatalf("log after compact holds %d records, want the %d compacted", len(got), len(compact))
	}
	extra := Record{Type: recAttempt, Job: 9, Attempts: 1}
	if err := w.Append(extra); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	w.Close()
	_, got, _ := openWAL(t, dir)
	if want := append(append([]Record{}, compact...), extra); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %d records, want the %d compacted plus the append", len(got), len(compact))
	}
}

// TestWALCompactRenameFails: a compaction whose rename fails returns the
// error and leaves the old log byte-identical and still the log: the next
// append lands in it, and a reopen replays the old records plus that one.
func TestWALCompactRenameFails(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openWAL(t, dir)
	old := sampleRecords()
	if err := w.Append(old...); err != nil {
		t.Fatal(err)
	}
	w.Close()
	before, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	faulty := vfs.NewFaulty(vfs.OS{}, vfs.Plan{RenameRate: 1, CrashAt: -1})
	w, _, _, err = OpenWAL(faulty, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(old[4:]); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("compact with a failing rename: %v, want the injected fault", err)
	}
	if after, err := os.ReadFile(logPath(dir)); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("failed compaction changed the log (%d → %d bytes, %v)", len(before), len(after), err)
	}
	onlyLog(t, dir)
	extra := Record{Type: recAttempt, Job: 9, Attempts: 1}
	if err := w.Append(extra); err != nil {
		t.Fatalf("append after the failed compaction: %v", err)
	}
	w.Close()
	_, got, _ := openWAL(t, dir)
	if want := append(append([]Record{}, old...), extra); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen replayed %d records, want the %d old ones plus the append", len(got), len(old))
	}
}

// dirSyncFails is the host filesystem with every directory sync failing.
type dirSyncFails struct{ vfs.OS }

func (dirSyncFails) SyncDir(string) error { return vfs.ErrInjected }

// TestWALCompactDirSyncFails: a compaction whose directory sync fails has
// already renamed the new image over the log, so it returns the error but
// the next append must land in the new log, not the old, unlinked one.
func TestWALCompactDirSyncFails(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openWAL(t, dir)
	all := sampleRecords()
	if err := w.Append(all...); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w, _, _, err := OpenWAL(dirSyncFails{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	compact := all[4:]
	if err := w.Compact(compact); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("compact with a failing directory sync: %v, want the injected fault", err)
	}
	extra := Record{Type: recAttempt, Job: 9, Attempts: 1}
	if err := w.Append(extra); err != nil {
		t.Fatalf("append after the compaction: %v", err)
	}
	w.Close()
	_, got, _ := openWAL(t, dir)
	if want := append(append([]Record{}, compact...), extra); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen replayed %d records, want the %d compacted plus the append", len(got), len(compact))
	}
}

// legacySegments builds the wal directory an older build leaves after a
// compaction interrupted before it deleted its predecessor: wal.000001 with
// the full record stream, wal.000002 with the compacted image, and
// wal.000003 holding only part of a header (its creation crashed).
func legacySegments(t *testing.T, dir string, stream, compacted []byte) {
	t.Helper()
	wd := filepath.Join(dir, walDirName)
	if err := os.MkdirAll(wd, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, b := range [][]byte{stream, compacted, segHeader()[:5]} {
		if err := os.WriteFile(filepath.Join(wd, fmt.Sprintf("wal.%06d", i+1)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALLegacyMigration: a data dir left as numbered segments by an older
// build migrates at first open into one log that recovers the same job
// table as the one-file log, and afterwards the wal directory holds only
// the log. A torn tail on a segment ends up in log.quarantine. A crash at
// every operation of a migrating open leaves a dir whose reopen replays the
// same records: the segments go only once the log replaced them.
func TestWALLegacyMigration(t *testing.T) {
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
	// checks that the log alone is left.
	recover := func(dir string) map[uint64]string {
		w, recs, _ := openWAL(t, dir)
		q, cerr := recoverQueue(w, recs, newCache(w, recs))
		if cerr != nil {
			t.Fatalf("compaction: %v", cerr)
		}
		w.Close()
		onlyLog(t, dir)
		states := make(map[uint64]string)
		for id, j := range q.jobs {
			states[id] = j.state.String()
		}
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
	full, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	single := recover(dir)
	if len(single) != 12 {
		t.Fatalf("recovered %d jobs, want 12", len(single))
	}
	compacted, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	legacy := t.TempDir()
	legacySegments(t, legacy, full, compacted)
	if migrated := recover(legacy); !reflect.DeepEqual(single, migrated) {
		t.Fatalf("recovery divergence:\none-file log %v\nlegacy segments %v", single, migrated)
	}

	// A torn tail on a segment that is not the last is quarantined.
	torn := t.TempDir()
	cut := len(full) - 5
	legacySegments(t, torn, full[:cut], compacted)
	_, _, rep := openWAL(t, torn)
	last := encodeRecord(&stream[len(stream)-1])
	q, err := os.ReadFile(logPath(torn) + ".quarantine")
	if err != nil || rep.Quarantined != 1 || !bytes.Equal(q, last[:len(last)-5]) {
		t.Fatalf("torn segment tail: quarantined %d, log.quarantine %q (%v), want the torn record's %d bytes",
			rep.Quarantined, q, err, len(last)-5)
	}

	// Crash at every operation index of one migrating open.
	var want []Record
	for _, b := range [][]byte{full, compacted} {
		sr, _, _, _, err := scanSegment(b)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, sr...)
	}
	for n := int64(0); ; n++ {
		dir := t.TempDir()
		legacySegments(t, dir, full, compacted)
		faulty := vfs.NewFaulty(vfs.OS{}, vfs.Plan{CrashAt: n})
		w, _, _, err := OpenWAL(faulty, dir, 0)
		if !faulty.Crashed() {
			if err != nil || n < 8 {
				t.Fatalf("migrating open finished after %d operations: %v", n, err)
			}
			w.Close()
			break
		}
		if err == nil {
			w.Close()
		}
		w, got, _ := openWAL(t, dir)
		w.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("crash at op %d: reopen replayed %d records, want %d", n, len(got), len(want))
		}
	}
}

// TestWALRejectsForeignFile: not-a-WAL inputs produce typed errors, not
// garbage replays.
func TestWALRejectsForeignFile(t *testing.T) {
	var v2 snapshot.Enc
	v2.Preamble(walMagic, walVersion+1)
	for _, tc := range []struct {
		name string
		data []byte
		want any
	}{
		{"foreign", []byte("definitely not a wal"), new(*snapshot.FormatError)},
		{"version-2", v2.Bytes(), new(*snapshot.VersionError)},
	} {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, walDirName), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(logPath(dir), tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := OpenWAL(vfs.OS{}, dir, 0); !errors.As(err, tc.want) {
			t.Fatalf("%s: open returned %v, want %T", tc.name, err, tc.want)
		}
	}
}

// FuzzScanSegment drives arbitrary bytes after a valid log header
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
	b, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, _, err := scanSegment(b)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// rotRecord flips a byte in the middle of every copy of rec in dir's log:
// bit rot that leaves the record's framing intact. It returns the rotten
// bytes.
func rotRecord(t *testing.T, dir string, rec Record) []byte {
	t.Helper()
	enc := encodeRecord(&rec)
	b, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(b, enc)
	if i < 0 {
		t.Fatalf("record %+v is not in the log", rec)
	}
	for ; i >= 0; i = bytes.Index(b, enc) {
		b[i+len(enc)/2] ^= 0x40
	}
	if err := os.WriteFile(logPath(dir), b, 0o644); err != nil {
		t.Fatal(err)
	}
	enc[len(enc)/2] ^= 0x40
	return enc
}
