package serve

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
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
// The log is a sequence of segment files wal/wal.000001, wal/wal.000002, …
// whose last (live) one takes the appends. A new segment starts only when
// compaction writes its fresh image, or when an append abandons a live
// segment it cannot repair; a crash in either can leave several segments,
// so recovery reads them all in order. Each segment is independently
// recoverable: a fixed header, then self-checksummed records. A torn tail on
// the live (last) segment — the one corruption a kill -9 can produce, since
// records are synced in order — is truncated away on open. A corrupt record anywhere else (bit rot, a
// torn tail on a non-live segment, a failed fsync whose partial bytes
// landed) is quarantined to a <segment>.quarantine file and skipped, so
// good records after it are never silently discarded. Compaction, which
// runs at every open, writes the minimal live record set into a fresh
// segment and deletes every fully-compacted predecessor.

const (
	walMagic            = "WWTWAL\x00"
	walVersion   uint32 = 1
	walDirName          = "wal"
	walSegPrefix        = "wal."

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
	e.U32(walVersion)
	return append([]byte(walMagic), e.Bytes()...)
}

// RecoveryReport summarizes what OpenWAL found and repaired.
type RecoveryReport struct {
	Segments    int // segment files scanned
	TornBytes   int // bytes truncated off the live segment's tail
	Quarantined int // corrupt records/regions moved to *.quarantine files
}

// WAL is an append-only, fsynced record log.
type WAL struct {
	mu     sync.Mutex
	fs     vfs.FS
	dir    string // data dir; segments live in dir/wal
	seg    int    // current (live) segment index
	f      vfs.File
	segLen int64 // known-durable byte length of the live segment
	broken bool  // last write/sync failed; reset before the next append

	records     int64
	quarantined int64
}

func (w *WAL) walDir() string { return filepath.Join(w.dir, walDirName) }

func (w *WAL) segPath(i int) string {
	return filepath.Join(w.walDir(), fmt.Sprintf("%s%06d", walSegPrefix, i))
}

// parseSegName returns the index of a wal.NNNNNN segment file name, or -1.
func parseSegName(name string) int {
	if !strings.HasPrefix(name, walSegPrefix) || len(name) != len(walSegPrefix)+6 {
		return -1
	}
	n, err := strconv.Atoi(name[len(walSegPrefix):])
	if err != nil || n <= 0 {
		return -1
	}
	return n
}

// scanSegment replays one segment image. Corrupt records with intact
// framing are reported as quarantine ranges and skipped; a tail whose
// framing runs off the end is reported in torn (offset where it starts).
// goodLen is the end of the last fully-framed record.
func scanSegment(b []byte) (recs []Record, goodLen int, quarantine [][2]int, torn bool, err error) {
	hdr := len(segHeader())
	if len(b) < hdr || string(b[:len(walMagic)]) != walMagic {
		return nil, 0, nil, false, fmt.Errorf("wal: bad segment magic")
	}
	hd := snapshot.NewDec(b[len(walMagic):])
	if v := hd.U32(); v != walVersion {
		return nil, 0, nil, false, fmt.Errorf("wal: segment format version %d (this build reads %d)", v, walVersion)
	}
	body := b[hdr:]
	d := snapshot.NewDec(body)
	off := hdr
	for d.Remaining() > 0 {
		t := d.U8()
		payload := d.Blob()
		d.U64() // checksum
		if d.Err != nil {
			// Framing ran off the end: a torn tail.
			return recs, off, quarantine, true, nil
		}
		end := hdr + (len(body) - d.Remaining())
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

// OpenWAL opens (or creates) the segmented log under dir/wal, replays every
// intact record across all segments in order, quarantines corrupt records,
// and truncates a torn tail off the live segment. It returns the replayed
// records in append order plus a report of repairs. The segment size is
// ignored: the log does not rotate.
func OpenWAL(fsys vfs.FS, dir string, _ int64) (w *WAL, recs []Record, rep RecoveryReport, err error) {
	w = &WAL{fs: fsys, dir: dir}
	if err := fsys.MkdirAll(w.walDir(), 0o755); err != nil {
		return nil, nil, rep, err
	}

	names, err := fsys.ReadDir(w.walDir())
	if err != nil {
		return nil, nil, rep, err
	}
	var segs []int
	for _, name := range names {
		if n := parseSegName(name); n > 0 {
			segs = append(segs, n)
		}
	}

	// A crash during segment creation (compaction, or an abandoned live
	// segment) can leave a trailing segment holding only a partial header.
	// It contains no records by construction — the header is synced before
	// any record is written — so drop it rather than mistaking it for a
	// foreign file.
	for len(segs) > 0 {
		n := segs[len(segs)-1]
		b, rerr := fsys.ReadFile(w.segPath(n))
		if rerr != nil {
			return nil, nil, rep, rerr
		}
		hdr := segHeader()
		if len(b) < len(hdr) && string(b) == string(hdr[:len(b)]) {
			if rerr := fsys.Remove(w.segPath(n)); rerr != nil {
				return nil, nil, rep, rerr
			}
			segs = segs[:len(segs)-1]
			continue
		}
		break
	}

	for i, n := range segs {
		path := w.segPath(n)
		b, rerr := fsys.ReadFile(path)
		if rerr != nil {
			return nil, nil, rep, rerr
		}
		sr, goodLen, quarantine, torn, serr := scanSegment(b)
		if serr != nil {
			return nil, nil, rep, fmt.Errorf("wal: %s: %w", path, serr)
		}
		live := i == len(segs)-1
		if torn {
			if live {
				// A kill -9 mid-append on the live segment: truncate the
				// torn bytes so appends continue from a clean tail.
				if terr := fsys.Truncate(path, int64(goodLen)); terr != nil {
					return nil, nil, rep, terr
				}
				rep.TornBytes += len(b) - goodLen
				b = b[:goodLen]
			} else {
				quarantine = append(quarantine, [2]int{goodLen, len(b)})
			}
		}
		rep.Quarantined += w.quarantineRanges(path, b, quarantine)
		recs = append(recs, sr...)
		if live {
			w.seg = n
			w.segLen = int64(goodLen)
		}
	}
	rep.Segments = len(segs)

	if len(segs) == 0 {
		if err := w.createSegment(1); err != nil {
			return nil, nil, rep, err
		}
	} else {
		f, oerr := fsys.OpenAppend(w.segPath(w.seg))
		if oerr != nil {
			return nil, nil, rep, oerr
		}
		w.f = f
	}
	w.records = int64(len(recs))
	w.quarantined = int64(rep.Quarantined)
	return w, recs, rep, nil
}

// quarantineRanges copies corrupt byte ranges of a segment to a sibling
// .quarantine file (evidence for the operator, out of the replay path) and
// returns how many ranges there were. Best-effort: quarantine must never
// turn a readable log into an open error.
func (w *WAL) quarantineRanges(path string, b []byte, ranges [][2]int) int {
	if len(ranges) == 0 {
		return 0
	}
	var blob []byte
	for _, r := range ranges {
		if r[0] < r[1] && r[1] <= len(b) {
			blob = append(blob, b[r[0]:r[1]]...)
		}
	}
	w.fs.WriteFile(path+".quarantine", blob, 0o644)
	return len(ranges)
}

// createSegment makes segment i the live segment: header written and
// synced, directory synced so the file itself survives a crash, handle kept
// open for appends.
func (w *WAL) createSegment(i int) error {
	path := w.segPath(i)
	f, err := w.fs.Create(path)
	if err != nil {
		return err
	}
	hdr := segHeader()
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := w.fs.SyncDir(w.walDir()); err != nil {
		f.Close()
		return err
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f = f
	w.seg = i
	w.segLen = int64(len(hdr))
	w.broken = false
	return nil
}

// reset drops any bytes past the known-durable length of the live segment —
// the repair path after a failed or torn append, so a half-written record
// never precedes a good one on disk.
func (w *WAL) reset() error {
	path := w.segPath(w.seg)
	if err := w.fs.Truncate(path, w.segLen); err != nil {
		return err
	}
	// A handle from Create still writes at its old offset, past the cut,
	// which would leave a hole of zeros that replay misframes; append at
	// the new end instead.
	f, err := w.fs.OpenAppend(path)
	if err != nil {
		return err
	}
	w.f.Close()
	w.f = f
	w.broken = false
	return nil
}

// Append durably writes recs as one unit: all records hit the live segment
// in order and a single fsync covers them. On return the records survive
// kill -9. On error nothing is considered durable: the segment is repaired
// (truncated back, or abandoned for a fresh one) before the next append.
func (w *WAL) Append(recs ...Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken {
		if err := w.reset(); err != nil {
			// Cannot repair in place (the truncate itself failed): abandon
			// the segment; its garbage tail is checksummed away on recovery.
			if cerr := w.createSegment(w.seg + 1); cerr != nil {
				return cerr
			}
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
	w.segLen += int64(len(buf))
	w.records += int64(len(recs))
	return nil
}

// Probe checks whether durable writes work again — the admission-unpause
// test after an ENOSPC. It repairs a broken tail if needed and fsyncs the
// live segment without adding records.
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

// Compact writes recs — the minimal state a future recovery needs — into a
// fresh segment and deletes every fully-compacted predecessor. The new
// segment is durable before anything is
// deleted, so a crash at any point leaves a replayable set: old segments
// plus a partial new one replay to the same job table, because a compacted
// segment's records supersede record-for-record what the old ones held.
func (w *WAL) Compact(recs []Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	oldSeg := w.seg
	if err := w.createSegment(oldSeg + 1); err != nil {
		// The live segment is untouched; keep appending to it.
		return err
	}
	var buf []byte
	for i := range recs {
		buf = append(buf, encodeRecord(&recs[i])...)
	}
	if len(buf) > 0 {
		if _, err := w.f.Write(buf); err != nil {
			w.broken = true
			return err
		}
		if err := w.f.Sync(); err != nil {
			w.broken = true
			return err
		}
		w.segLen += int64(len(buf))
	}
	w.records = int64(len(recs))

	// The compacted image is durable; everything older is now dead weight.
	for i := 1; i <= oldSeg; i++ {
		w.fs.Remove(w.segPath(i))
		w.fs.Remove(w.segPath(i) + ".quarantine")
	}
	w.fs.SyncDir(w.walDir())
	return nil
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
