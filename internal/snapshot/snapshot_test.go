package snapshot

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

// xorshift is a tiny local generator so the property tests are seeded and
// reproducible without importing the simulator (which imports this package).
type xorshift uint64

func (x *xorshift) next() uint64 {
	s := uint64(*x)
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	*x = xorshift(s)
	return s * 0x2545F4914F6CDD1D
}

// randomState builds a state blob shaped like a real machine image: an
// engine section (clocks, event times), per-node cache sections (tag/state
// lines, an RNG cursor), and a directory section (sorted blocks with sharer
// words and history strings). The shapes match what the machine encoders
// emit, so the round-trip property covers realistic payloads.
func randomState(r *xorshift) []byte {
	var e Enc
	e.Section("engine", func(e *Enc) {
		e.I64(int64(r.next() % 1e9))
		e.U64(r.next())
		n := int(r.next() % 64)
		e.U32(uint32(n))
		for i := 0; i < n; i++ {
			e.I64(int64(r.next() % 1e9))
			e.U64(r.next())
		}
	})
	nodes := int(r.next()%8) + 1
	for i := 0; i < nodes; i++ {
		e.Section("cache", func(e *Enc) {
			lines := int(r.next() % 256)
			e.U32(uint32(lines))
			for j := 0; j < lines; j++ {
				e.U64(r.next())
				e.U8(uint8(r.next() % 3))
			}
			e.U64(r.next()) // replacement RNG cursor
		})
	}
	e.Section("directory", func(e *Enc) {
		entries := int(r.next() % 128)
		e.U32(uint32(entries))
		for j := 0; j < entries; j++ {
			e.U64(r.next())             // block
			e.U8(uint8(r.next() % 3))   // dirState
			e.I64(int64(r.next() % 32)) // owner
			e.U64s([]uint64{r.next()})  // sharer words
			e.Bool(r.next()%2 == 0)     // busy
			e.Str("@1234 grant GETX to 3 (data=true)")
		}
	})
	return e.Bytes()
}

func randomSnapshot(r *xorshift) *Snapshot {
	state := randomState(r)
	var stats Enc
	procs := int(r.next()%16) + 1
	stats.U32(uint32(procs))
	for i := 0; i < procs; i++ {
		stats.Section("acct", func(e *Enc) {
			e.I64s([]int64{int64(r.next() % 1e12), int64(r.next() % 1e12)})
		})
	}
	return &Snapshot{
		Spec:      []byte(`{"App":"em3d","Machine":"sm","Procs":8}`),
		Cycle:     int64(r.next() % 1e9),
		StateHash: Hash(state),
		State:     state,
		Stats:     stats.Bytes(),
	}
}

// TestRoundTripByteStable is the property test: for many randomized
// engine/cache/directory states, encode→decode→encode is byte-identical.
func TestRoundTripByteStable(t *testing.T) {
	r := xorshift(42)
	for i := 0; i < 200; i++ {
		s := randomSnapshot(&r)
		b1 := Encode(s)
		got, err := Decode(b1)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		b2 := Encode(got)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("iter %d: encode∘decode∘encode not byte-stable", i)
		}
		if got.Cycle != s.Cycle || got.StateHash != s.StateHash ||
			!bytes.Equal(got.State, s.State) || !bytes.Equal(got.Stats, s.Stats) ||
			!bytes.Equal(got.Spec, s.Spec) {
			t.Fatalf("iter %d: decoded snapshot differs from original", i)
		}
	}
}

// TestDecodeRejectsTruncation: every strict prefix of a valid snapshot must
// decode to a typed error (truncation or checksum), never success or panic.
func TestDecodeRejectsTruncation(t *testing.T) {
	r := xorshift(7)
	full := Encode(randomSnapshot(&r))
	for n := 0; n < len(full); n++ {
		_, err := Decode(full[:n])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(full))
		}
		var te *TruncatedError
		var fe *FormatError
		var ce *ChecksumError
		if !errors.As(err, &te) && !errors.As(err, &fe) && !errors.As(err, &ce) {
			t.Fatalf("prefix %d: untyped error %T: %v", n, err, err)
		}
	}
}

func TestDecodeRejectsVersionMismatch(t *testing.T) {
	r := xorshift(9)
	b := Encode(randomSnapshot(&r))
	b[len(magic)] ^= 0xFF // bump the version field
	_, err := Decode(b)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want VersionError", err)
	}
	if ve.Got == Version || ve.Want != Version {
		t.Errorf("VersionError fields: %+v", ve)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	r := xorshift(11)
	b := Encode(randomSnapshot(&r))
	// Flip a byte in the middle of the state section: the trailing checksum
	// must catch it.
	b[len(b)/2] ^= 0x01
	_, err := Decode(b)
	var ce *ChecksumError
	var fe *FormatError
	if !errors.As(err, &ce) && !errors.As(err, &fe) {
		t.Fatalf("err = %v, want ChecksumError or FormatError", err)
	}

	// Bad magic.
	b2 := append([]byte(nil), b...)
	b2[0] = 'X'
	if _, err := Decode(b2); !errors.As(err, &fe) {
		t.Fatalf("bad magic: err = %v, want FormatError", err)
	}

	// Trailing garbage.
	b3 := append(Encode(randomSnapshot(&r)), 0xEE)
	if _, err := Decode(b3); !errors.As(err, &fe) {
		t.Fatalf("trailing garbage: err = %v, want FormatError", err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	r := xorshift(21)
	s := randomSnapshot(&r)
	path := filepath.Join(t.TempDir(), "ckpt-000123.wws")
	if err := AtomicWriteFile(path, Encode(s)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Encode(got), Encode(s)) {
		t.Error("file round trip not byte-stable")
	}
}

// TestDecodeChecksStateOnlyWhenPresent: a checkpoint without a state image
// decodes with its hash intact; a state image that does not hash to the
// header's value is rejected.
func TestDecodeChecksStateOnlyWhenPresent(t *testing.T) {
	r := xorshift(31)
	s := randomSnapshot(&r)
	s.State = nil
	got, err := Decode(Encode(s))
	if err != nil {
		t.Fatalf("image-less snapshot: %v", err)
	}
	if got.StateHash != s.StateHash || len(got.State) != 0 {
		t.Fatalf("image-less snapshot decoded to hash %#x, %d state bytes", got.StateHash, len(got.State))
	}

	s = randomSnapshot(&r)
	s.StateHash++
	var fe *FormatError
	if _, err := Decode(Encode(s)); !errors.As(err, &fe) {
		t.Fatalf("mismatched state image: err = %v, want FormatError", err)
	}
}

// TestSectionFraming: a named section's bytes change loudly when the name
// or content changes (encoders rely on this to catch skew).
func TestSectionFraming(t *testing.T) {
	var a, b, c Enc
	a.Section("cache", func(e *Enc) { e.U64(1) })
	b.Section("cache", func(e *Enc) { e.U64(2) })
	c.Section("tlb", func(e *Enc) { e.U64(1) })
	if bytes.Equal(a.Bytes(), b.Bytes()) || bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Error("section framing does not separate name/content changes")
	}
	d := NewDec(a.Bytes())
	if name := d.Str(); name != "cache" {
		t.Errorf("section name = %q", name)
	}
	body := d.Blob()
	if d.Err != nil || len(body) != 8 {
		t.Errorf("section body: len=%d err=%v", len(body), d.Err)
	}
}
