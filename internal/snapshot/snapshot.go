package snapshot

import (
	"fmt"
	"os"

	"repro/internal/vfs"
)

// Version is the current snapshot format version. Decoders reject any other
// version with a *VersionError rather than misinterpreting fields.
const Version uint32 = 1

// magic identifies a snapshot file. Eight bytes so truncation inside the
// magic itself is distinguishable from a wrong file type.
const magic = "WWTSNAP\x00"

// Snapshot is one checkpoint of a simulated run.
type Snapshot struct {
	// Spec is the serialized run specification (internal/runner.Spec as
	// JSON): everything needed to rebuild the identical machine and program.
	Spec []byte

	// Cycle is the virtual time at which the state was captured — always a
	// quantum boundary with no processor executing.
	Cycle int64

	// StateHash is the hash of the canonical machine-state image at Cycle
	// (engine, network, transports, caches, directory, fault-RNG positions,
	// application arrays): all a replay needs to verify the state.
	StateHash uint64

	// State is that image itself. Checkpoints leave it empty; when present
	// it must hash to StateHash. Only a restore-based resume would read it.
	State []byte

	// Stats is the canonical accounting image at Cycle (every processor's
	// full per-phase cycle and count tables), so a resumed run's mid-flight
	// accounting can be compared byte-for-byte too.
	Stats []byte
}

// FormatError reports input in the wrong format: a preamble with another
// file type's magic, or a snapshot with trailing garbage after the checksum.
type FormatError struct{ Reason string }

func (e *FormatError) Error() string { return "snapshot: unrecognized format: " + e.Reason }

// VersionError reports a file written by an incompatible format version.
type VersionError struct{ Got, Want uint32 }

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: format version %d (this build reads version %d)", e.Got, e.Want)
}

// TruncatedError reports input that ended before a field could be read.
type TruncatedError struct {
	What   string // the field being read
	Offset int    // where the read started
	Size   int    // total input size
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("snapshot: truncated input: reading %s at offset %d of %d bytes",
		e.What, e.Offset, e.Size)
}

// ChecksumError reports a snapshot whose trailing checksum does not match
// its contents — bit rot or a partially written file.
type ChecksumError struct{ Got, Want uint64 }

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("snapshot: checksum mismatch: file says %#x, contents hash to %#x",
		e.Want, e.Got)
}

// Encode serializes s. The layout is: magic, version, cycle, state hash,
// then length-prefixed spec/state/stats sections, then an FNV-1a checksum
// of every preceding byte. Encoding is canonical: equal snapshots produce
// equal bytes.
func Encode(s *Snapshot) []byte {
	var e Enc
	e.Preamble(magic, Version)
	e.I64(s.Cycle)
	e.U64(s.StateHash)
	e.Blob(s.Spec)
	e.Blob(s.State)
	e.Blob(s.Stats)
	e.U64(Hash(e.Bytes()))
	return e.Bytes()
}

// Decode parses a snapshot, returning a typed error on bad magic, version
// mismatch, truncation, checksum failure, or trailing garbage. It never
// panics on arbitrary input (the fuzz target enforces this).
func Decode(b []byte) (*Snapshot, error) {
	d := NewDec(b)
	if err := d.Preamble(magic, Version); err != nil {
		return nil, err
	}
	s := &Snapshot{}
	s.Cycle = d.I64()
	s.StateHash = d.U64()
	s.Spec = d.Blob()
	s.State = d.Blob()
	s.Stats = d.Blob()
	body := d.off
	sum := d.U64()
	if d.Err != nil {
		return nil, d.Err
	}
	if d.Remaining() != 0 {
		return nil, &FormatError{Reason: fmt.Sprintf("%d trailing bytes", d.Remaining())}
	}
	if got := Hash(b[:body]); got != sum {
		return nil, &ChecksumError{Got: got, Want: sum}
	}
	if h := Hash(s.State); len(s.State) > 0 && h != s.StateHash {
		return nil, &FormatError{Reason: fmt.Sprintf(
			"state hash field %#x does not match state section (%#x)", s.StateHash, h)}
	}
	return s, nil
}

// AtomicWriteFile writes data to path with vfs.WriteAtomic on the host
// filesystem: readers see the old contents or the complete new contents,
// never a torn file. Checkpoints and sweep results files go through it.
func AtomicWriteFile(path string, data []byte) error {
	return vfs.WriteAtomic(vfs.OS{}, path, data)
}

// ReadFile reads and decodes a snapshot file.
func ReadFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}
