// Package snapshot implements the simulator's versioned checkpoint format
// and the canonical byte encoding every subsystem uses to contribute its
// state to a checkpoint.
//
// The simulator cannot freeze target-program goroutine stacks, so resume is
// replay-based: a snapshot records the run specification, the checkpoint
// cycle, the hash of a canonical byte image of all serializable machine
// state (engine clocks and event times, NI queues, transport windows,
// caches, directory entries, fault-RNG positions, application arrays), and
// the accounting tables themselves. Resuming re-executes the run
// deterministically from cycle zero and, on reaching the checkpoint cycle,
// verifies that the reconstructed state hashes to the recorded value and
// the accounting is byte-identical before continuing — so any hidden
// nondeterminism (map iteration order, wall-clock leakage, unseeded
// randomness) is detected at the first divergent checkpoint instead of
// silently corrupting a resumed sweep.
//
// A checkpoint carries the hash, not the image: replay never reads the
// image, which is over 99% of its size. A restore-based resume, which
// would rebuild the machine at the checkpoint cycle instead of replaying
// to it, would need the image back (the format keeps a section for it).
//
// Everything here is deterministic: fixed little-endian widths, explicit
// lengths, no map iteration, no floats-as-text. Encoding the same logical
// state twice yields identical bytes, which the replay-equivalence harness
// relies on.
package snapshot

import "math"

// Enc is an append-only canonical encoder. All integers are fixed-width
// little-endian; floats are encoded as their IEEE-754 bit patterns; strings
// and byte slices carry a u32 length prefix. The zero value is ready to use.
type Enc struct{ b []byte }

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.b }

// Len returns the number of bytes encoded so far.
func (e *Enc) Len() int { return len(e.b) }

// Preamble appends a file preamble: the magic bytes, then a u32 format
// version.
func (e *Enc) Preamble(magic string, version uint32) {
	e.b = append(e.b, magic...)
	e.U32(version)
}

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.b = append(e.b, v) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a fixed-width little-endian uint32.
func (e *Enc) U32(v uint32) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a fixed-width little-endian uint64.
func (e *Enc) U64(v uint64) {
	e.b = append(e.b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 appends an int64 (two's complement, little-endian).
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bit pattern.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Enc) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.b = append(e.b, b...)
}

// F64s appends a length-prefixed []float64.
func (e *Enc) F64s(v []float64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

// I64s appends a length-prefixed []int64.
func (e *Enc) I64s(v []int64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.I64(x)
	}
}

// U64s appends a length-prefixed []uint64.
func (e *Enc) U64s(v []uint64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U64(x)
	}
}

// Ints appends a length-prefixed []int.
func (e *Enc) Ints(v []int) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.I64(int64(x))
	}
}

// Section appends a named, length-prefixed sub-encoding: subsystem encoders
// use it so a missing or reordered contribution changes the bytes loudly
// instead of silently shifting later fields.
func (e *Enc) Section(name string, fill func(*Enc)) {
	e.Str(name)
	var sub Enc
	fill(&sub)
	e.Blob(sub.Bytes())
}

// Hash returns the FNV-1a 64-bit hash of b, the digest used for snapshot
// state verification and run fingerprints.
func Hash(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// Dec decodes buffers produced by Enc. Reads past the end set Err (a
// *TruncatedError) and return zero values; callers check Err once at the
// end, which keeps fuzzed decoding panic-free.
type Dec struct {
	b   []byte
	off int

	// Err is the first decode error encountered, or nil.
	Err error
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

func (d *Dec) fail(what string) {
	if d.Err == nil {
		d.Err = &TruncatedError{What: what, Offset: d.off, Size: len(d.b)}
	}
}

func (d *Dec) take(n int, what string) []byte {
	if d.Err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail(what)
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// Preamble reads a preamble written by Enc.Preamble. Input that ends
// inside it is a *TruncatedError, a different magic a *FormatError and a
// different version a *VersionError; the error is also left in Err.
func (d *Dec) Preamble(magic string, version uint32) error {
	if m := d.take(len(magic), "magic"); d.Err == nil && string(m) != magic {
		d.Err = &FormatError{Reason: "bad magic"}
	}
	if v := d.U32(); d.Err == nil && v != version {
		d.Err = &VersionError{Got: v, Want: version}
	}
	return d.Err
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (d *Dec) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4, "u32")
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8, "u64")
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads a float64 bit pattern.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := int(d.U32())
	if n > d.Remaining() {
		d.fail("string body")
		return ""
	}
	return string(d.take(n, "string body"))
}

// Blob reads a length-prefixed byte slice (copied out of the buffer).
func (d *Dec) Blob() []byte {
	n := int(d.U32())
	if n > d.Remaining() {
		d.fail("blob body")
		return nil
	}
	b := d.take(n, "blob body")
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}
