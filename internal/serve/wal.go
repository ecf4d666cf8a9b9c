package serve

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/snapshot"
	"repro/internal/vfs"
)

// The write-ahead log is the service's one durable store. Every state change
// a restart must survive — a job submitted, an attempt failed, a preempted
// job's resume point, a result computed, a job finished — is appended and
// fsynced before the change is acknowledged anywhere else. Recovery replays
// the log: result records rebuild the cache, and a job with a submit record
// but no terminal record is pending again (a job that was mid-run when the
// process died simply reruns — results are deterministic and the cache
// makes re-completion idempotent).
//
// The log is one file, wal/log: a fixed header, then self-checksummed
// records. A torn tail — the one corruption a kill -9 can produce, since
// records are synced in order — is truncated away on open. A corrupt record
// anywhere else (bit rot, a failed fsync whose partial bytes landed) is
// copied to wal/log.quarantine, once however often the log is reopened, and
// skipped, so good records after it are never silently discarded.
// Compaction, which every server open runs, writes the minimal live record
// set to wal/log.tmp and renames it over wal/log (vfs.WriteAtomic): a crash
// leaves the old log or the new one, and a stray log.tmp is ignored. A data
// dir written by an older build holds numbered segments wal/wal.000001, …
// instead; the first open migrates them into wal/log.

const (
	walMagic          = "WWTWAL\x00"
	walVersion uint32 = 1
	walDirName        = "wal"
	walLogName        = "log"

	// Deprecated: ignored; the log does not rotate. OpenWAL still takes
	// a segment size for its existing callers.
	DefaultSegmentBytes = 1 << 20
)

type recType uint8

const (
	recSubmit  recType = 1 // job accepted: batch, index, key, spec JSON, deadline
	recDone    recType = 2 // job completed; its result is the recResult under Key
	recFail    recType = 3 // job terminally failed: kind + last error
	recAttempt recType = 4 // one attempt failed; Attempts is the new count
	// Type 5 held a path to a checkpoint file; it no longer decodes, so an
	// older log's type-5 records are quarantined and their jobs rerun.
	recResult recType = 6 // a cell's Result, logged ahead of its recDone
	recResume recType = 7 // resume point: cycle, state hash, stats; cycle 0 clears it
)

// Record is one durable event. Which fields are meaningful depends on Type;
// encoding is canonical per type, and replay accepts only canonical bytes.
type Record struct {
	Type recType
	Job  uint64

	// recSubmit
	Batch      uint64
	Index      int
	Key        uint64
	Spec       []byte // runner.Spec as JSON
	DeadlineMS int64

	// recDone
	Cached bool

	// recFail / recAttempt
	Attempts int
	Kind     string
	Err      string

	// recResult
	Result *Result

	// recResume: the snapshot a preempted job resumes through (its Spec is
	// not logged), nil to clear the job's resume point.
	Resume *snapshot.Snapshot
}

func (r *Record) payload() []byte {
	var e snapshot.Enc
	e.U64(r.Job)
	switch r.Type {
	case recSubmit:
		e.U64(r.Batch)
		e.I64(int64(r.Index))
		e.U64(r.Key)
		e.Blob(r.Spec)
		e.I64(r.DeadlineMS)
	case recDone:
		e.U64(r.Key)
		e.Bool(r.Cached)
	case recFail:
		e.I64(int64(r.Attempts))
		e.Str(r.Kind)
		e.Str(r.Err)
	case recAttempt:
		e.I64(int64(r.Attempts))
	case recResume:
		var snap snapshot.Snapshot
		if r.Resume != nil {
			snap = *r.Resume
		}
		e.I64(snap.Cycle)
		e.U64(snap.StateHash)
		e.Blob(snap.Stats)
	case recResult:
		res := r.Result
		e.U64(res.Key)
		e.U64(res.Fingerprint)
		e.I64(res.Elapsed)
		e.Str(res.AppLine)
		e.Str(res.Err)
		e.U32(uint32(len(res.Breakdown)))
		for _, be := range res.Breakdown {
			e.Str(be.Name)
			e.F64(be.Cycles)
		}
	}
	return e.Bytes()
}

func decodeRecord(t recType, payload []byte) (Record, error) {
	d := snapshot.NewDec(payload)
	r := Record{Type: t}
	r.Job = d.U64()
	switch t {
	case recSubmit:
		r.Batch = d.U64()
		r.Index = int(d.I64())
		r.Key = d.U64()
		r.Spec = d.Blob()
		r.DeadlineMS = d.I64()
	case recDone:
		r.Key = d.U64()
		r.Cached = d.Bool()
	case recFail:
		r.Attempts = int(d.I64())
		r.Kind = d.Str()
		r.Err = d.Str()
	case recAttempt:
		r.Attempts = int(d.I64())
	case recResume:
		snap := &snapshot.Snapshot{Cycle: d.I64(), StateHash: d.U64(), Stats: d.Blob()}
		if snap.Cycle != 0 {
			r.Resume = snap
		}
	case recResult:
		res := &Result{Key: d.U64(), Fingerprint: d.U64(), Elapsed: d.I64(), AppLine: d.Str(), Err: d.Str()}
		// A row is at least a name length and a float: bound the count by
		// the bytes left before allocating for it.
		n := int(d.U32())
		if n > d.Remaining()/12 {
			return r, fmt.Errorf("wal: result record: %d breakdown rows overrun the payload", n)
		}
		for i := 0; i < n; i++ {
			res.Breakdown = append(res.Breakdown, BreakdownEntry{Name: d.Str(), Cycles: d.F64()})
		}
		r.Result = res
	default:
		return r, fmt.Errorf("wal: unknown record type %d", t)
	}
	if d.Err != nil {
		return r, fmt.Errorf("wal: record type %d: %w", t, d.Err)
	}
	if d.Remaining() != 0 {
		return r, fmt.Errorf("wal: record type %d: %d trailing payload bytes", t, d.Remaining())
	}
	return r, nil
}

// encodeRecord frames one record: type byte, length-prefixed payload, then
// an FNV-1a checksum over both, so replay can tell a torn append from an
// intact record.
func encodeRecord(r *Record) []byte {
	var e snapshot.Enc
	e.U8(uint8(r.Type))
	e.Blob(r.payload())
	e.U64(snapshot.Hash(e.Bytes()))
	return e.Bytes()
}

func segHeader() []byte {
	var e snapshot.Enc
	e.Preamble(walMagic, walVersion)
	return e.Bytes()
}

// RecoveryReport summarizes what OpenWAL found and repaired.
type RecoveryReport struct {
	TornBytes   int // bytes truncated off the log's tail
	Quarantined int // corrupt records/regions copied to wal/log.quarantine
}

// WAL is an append-only, fsynced record log.
type WAL struct {
	mu     sync.Mutex
	fs     vfs.FS
	path   string // dir/wal/log
	f      vfs.File
	size   int64 // known-durable byte length of the log
	broken bool  // last write/sync failed; reset before the next append

	records     int64
	quarantined int64
}

// scanSegment replays one log image. Corrupt records with intact framing
// are reported as quarantine ranges and skipped; a tail whose framing runs
// off the end is reported in torn (offset where it starts). goodLen is the
// end of the last fully-framed record.
func scanSegment(b []byte) (recs []Record, goodLen int, quarantine [][2]int, torn bool, err error) {
	d := snapshot.NewDec(b)
	if err := d.Preamble(walMagic, walVersion); err != nil {
		return nil, 0, nil, false, err
	}
	off := len(b) - d.Remaining()
	for d.Remaining() > 0 {
		t := d.U8()
		payload := d.Blob()
		d.U64() // checksum
		if d.Err != nil {
			// Framing ran off the end: a torn tail.
			return recs, off, quarantine, true, nil
		}
		end := len(b) - d.Remaining()
		// A record is good when it decodes and re-encodes to exactly the
		// bytes read, which checks the checksum and canonical form at once.
		rec, derr := decodeRecord(recType(t), payload)
		if derr != nil || !bytes.Equal(encodeRecord(&rec), b[off:end]) {
			// The frame is intact but the contents are rotten: quarantine
			// this record and keep scanning — good records after it must
			// not be discarded.
			quarantine = append(quarantine, [2]int{off, end})
		} else {
			recs = append(recs, rec)
		}
		off = end
	}
	return recs, off, quarantine, false, nil
}

// OpenWAL opens (or creates) the log dir/wal/log, replays every intact
// record in order, quarantines corrupt records, truncates a torn tail, and
// deletes any older build's segments beside the log (see migrate).
// It returns the replayed records in append order plus a report of repairs.
// The segment size is ignored: the log does not rotate.
func OpenWAL(fsys vfs.FS, dir string, _ int64) (w *WAL, recs []Record, rep RecoveryReport, err error) {
	w = &WAL{fs: fsys, path: filepath.Join(dir, walDirName, walLogName)}
	if err := fsys.MkdirAll(filepath.Dir(w.path), 0o755); err != nil {
		return nil, nil, rep, err
	}
	names, err := fsys.ReadDir(filepath.Dir(w.path))
	if err != nil {
		return nil, nil, rep, err
	}
	var segs []string
	for _, name := range names {
		if ok, _ := filepath.Match("wal.[0-9][0-9][0-9][0-9][0-9][0-9]", name); ok {
			segs = append(segs, filepath.Join(filepath.Dir(w.path), name))
		}
	}
	b, err := fsys.ReadFile(w.path)
	if vfs.IsNotExist(err) {
		recs, rep, err = w.migrate(segs)
	} else if err == nil {
		var goodLen int
		var quarantine [][2]int
		if recs, goodLen, quarantine, _, err = scanSegment(b); err != nil {
			err = fmt.Errorf("wal: %s: %w", w.path, err)
		} else {
			// Past goodLen lies a torn tail (kill -9 mid-append), if any:
			// reset truncates it so appends continue from a clean tail.
			rep.TornBytes = len(b) - goodLen
			rep.Quarantined = w.quarantineRanges(b, quarantine)
			w.size = int64(goodLen)
			err = w.reset()
		}
	}
	if err != nil {
		return nil, nil, rep, err
	}
	for _, path := range segs {
		fsys.Remove(path)
	}
	w.records = int64(len(recs))
	w.quarantined = int64(rep.Quarantined)
	return w, recs, rep, nil
}

// migrate creates the log when none exists. An older build kept numbered
// segments wal/wal.000001, … beside it (segs, in name order); their records
// become the first log, and OpenWAL deletes the segments only once it is
// durable, so a crash at any point leaves the segments or the log (a
// segment left beside the log is never read again, and the next open
// deletes it).
// Segments are never written here: a partial header (a segment whose
// creation crashed, which holds no records) is skipped, and a torn tail is
// quarantined rather than truncated. In a fresh dir this writes an empty
// log.
func (w *WAL) migrate(segs []string) (recs []Record, rep RecoveryReport, err error) {
	for _, path := range segs {
		b, err := w.fs.ReadFile(path)
		if err != nil {
			return nil, rep, err
		}
		if hdr := segHeader(); len(b) < len(hdr) && string(b) == string(hdr[:len(b)]) {
			continue
		}
		sr, goodLen, quarantine, torn, err := scanSegment(b)
		if err != nil {
			return nil, rep, fmt.Errorf("wal: %s: %w", path, err)
		}
		if torn {
			quarantine = append(quarantine, [2]int{goodLen, len(b)})
		}
		rep.Quarantined += w.quarantineRanges(b, quarantine)
		recs = append(recs, sr...)
	}
	if err := w.replace(recs); err != nil {
		return nil, rep, err
	}
	return recs, rep, nil
}

// quarantineRanges appends corrupt byte ranges of a log image to
// wal/log.quarantine (evidence for the operator, out of the replay path,
// kept across compactions) and returns how many ranges there were. A range
// the file already holds is not appended again: an open that does not
// compact the rotten record away finds it again at every open.
// Best-effort: quarantine must never turn a readable log into an open error.
func (w *WAL) quarantineRanges(b []byte, ranges [][2]int) int {
	if len(ranges) == 0 {
		return 0
	}
	path := w.path + ".quarantine"
	old, err := w.fs.ReadFile(path)
	if err != nil && !vfs.IsNotExist(err) {
		return len(ranges) // never overwrite evidence that could not be read
	}
	blob := old
	for _, r := range ranges {
		if r[0] < r[1] && r[1] <= len(b) && !bytes.Contains(old, b[r[0]:r[1]]) {
			blob = append(blob, b[r[0]:r[1]]...)
		}
	}
	if len(blob) > len(old) {
		w.fs.WriteFile(path, blob, 0o644)
	}
	return len(ranges)
}

// reset drops any bytes past the known-durable length of the log and
// reopens the append handle at the new end — the repair path after a failed
// or torn append, so a half-written record never precedes a good one on
// disk, and the step that moves appends onto a freshly renamed log.
func (w *WAL) reset() error {
	if err := w.fs.Truncate(w.path, w.size); err != nil {
		return err
	}
	f, err := w.fs.OpenAppend(w.path)
	if err != nil {
		return err
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f = f
	w.broken = false
	return nil
}

// Append durably writes recs as one unit: all records hit the log in order
// and a single fsync covers them. On return the records survive kill -9. On
// error nothing is considered durable: the log's tail is truncated back
// before the next append, and an append whose repair fails returns that
// error.
func (w *WAL) Append(recs ...Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken {
		if err := w.reset(); err != nil {
			return err
		}
	}
	var buf []byte
	for i := range recs {
		buf = append(buf, encodeRecord(&recs[i])...)
	}
	if _, err := w.f.Write(buf); err != nil {
		w.broken = true
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.broken = true
		return err
	}
	w.size += int64(len(buf))
	w.records += int64(len(recs))
	return nil
}

// Probe checks whether durable writes work again — the admission-unpause
// test after an ENOSPC. It repairs a broken tail if needed and fsyncs the
// log without adding records.
func (w *WAL) Probe() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken {
		if err := w.reset(); err != nil {
			return err
		}
	}
	return w.f.Sync()
}

// Records returns the number of records written to or replayed from the
// log since open (a /stats gauge).
func (w *WAL) Records() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Quarantined returns the number of corrupt records quarantined at open.
func (w *WAL) Quarantined() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.quarantined
}

// Compact replaces the log with recs — the minimal state a future recovery
// needs. On error the old log is still the log and takes the next appends.
func (w *WAL) Compact(recs []Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.replace(recs)
}

// replace atomically swaps a log image of recs in for the log, then moves
// the append handle onto it.
func (w *WAL) replace(recs []Record) error {
	img := segHeader()
	for i := range recs {
		img = append(img, encodeRecord(&recs[i])...)
	}
	err := vfs.WriteAtomic(w.fs, w.path, img)
	if err != nil {
		// Only the directory sync fails after the rename, and then the new
		// image is the log: appends to the old, unlinked file would be lost.
		if b, rerr := w.fs.ReadFile(w.path); rerr != nil || !bytes.Equal(b, img) {
			return err
		}
	}
	w.size = int64(len(img))
	w.records = int64(len(recs))
	if rerr := w.reset(); rerr != nil {
		w.broken = true // the next Append retries the reopen
		return rerr
	}
	return err
}

// Close syncs and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
