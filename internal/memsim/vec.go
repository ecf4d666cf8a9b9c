package memsim

// WordBytes is the size of a simulated machine word (double-precision
// floats and pointers/longs are 8 bytes).
const WordBytes = 8

// FVec binds a real []float64 to a range of simulated addresses. Get/Set
// perform the actual data movement in Go while charging the simulated
// memory system. On the shared-memory machine an FVec allocated in the
// shared segment is one vector accessed by all processors (timing from the
// coherence protocol, values from the single backing slice); on the
// message-passing machine each processor holds its own private FVec.
//
// ElemBytes is the simulated element size: 8 for double precision, 4 for
// single (Gauss works in single precision — its traffic and miss counts in
// the paper match 4-byte rows). The Go backing is always float64; only the
// simulated footprint and wire size differ.
type FVec struct {
	Base      uint64
	ElemBytes int
	V         []float64
}

// NewFVec wraps n double-precision elements at base.
func NewFVec(base uint64, n int) FVec {
	return FVec{Base: base, ElemBytes: WordBytes, V: make([]float64, n)}
}

// NewFVecSized wraps n elements of elemBytes each at base.
func NewFVecSized(base uint64, n, elemBytes int) FVec {
	if elemBytes != 4 && elemBytes != 8 {
		panic("memsim: element size must be 4 or 8 bytes")
	}
	return FVec{Base: base, ElemBytes: elemBytes, V: make([]float64, n)}
}

// Len returns the element count.
func (v *FVec) Len() int { return len(v.V) }

// Addr returns the simulated address of element i.
func (v *FVec) Addr(i int) uint64 { return v.Base + uint64(i)*uint64(v.ElemBytes) }

// Get simulates a load of element i and returns its value.
func (v *FVec) Get(m *Mem, i int) float64 {
	m.Read(v.Addr(i))
	return v.V[i]
}

// Set simulates a store of element i.
func (v *FVec) Set(m *Mem, i int, x float64) {
	m.Write(v.Addr(i))
	v.V[i] = x
}

// ReadRange simulates streaming loads of elements [lo, hi).
func (v *FVec) ReadRange(m *Mem, lo, hi int) {
	m.ReadRange(v.Addr(lo), (hi-lo)*v.ElemBytes)
}

// WriteRange simulates streaming stores of elements [lo, hi).
func (v *FVec) WriteRange(m *Mem, lo, hi int) {
	m.WriteRange(v.Addr(lo), (hi-lo)*v.ElemBytes)
}

// StepGet is Get for step processors; the value is valid only when done.
func (v *FVec) StepGet(m *Mem, i int) (float64, bool) {
	if !m.StepRead(v.Addr(i)) {
		return 0, false
	}
	return v.V[i], true
}

// StepSet is Set for step processors: the backing store mutates exactly
// once, on the completing call.
func (v *FVec) StepSet(m *Mem, i int, x float64) bool {
	if !m.StepWrite(v.Addr(i)) {
		return false
	}
	v.V[i] = x
	return true
}

// StepReadRange is ReadRange for step processors.
func (v *FVec) StepReadRange(m *Mem, lo, hi int) bool {
	return m.StepReadRange(v.Addr(lo), (hi-lo)*v.ElemBytes)
}

// StepWriteRange is WriteRange for step processors.
func (v *FVec) StepWriteRange(m *Mem, lo, hi int) bool {
	return m.StepWriteRange(v.Addr(lo), (hi-lo)*v.ElemBytes)
}

// IVec binds a real []int64 to simulated addresses; see FVec.
type IVec struct {
	Base uint64
	V    []int64
}

// NewIVec wraps n int64 words at base.
func NewIVec(base uint64, n int) IVec {
	return IVec{Base: base, V: make([]int64, n)}
}

// Len returns the element count.
func (v *IVec) Len() int { return len(v.V) }

// Addr returns the simulated address of element i.
func (v *IVec) Addr(i int) uint64 { return v.Base + uint64(i)*WordBytes }

// Get simulates a load of element i and returns its value.
func (v *IVec) Get(m *Mem, i int) int64 {
	m.Read(v.Addr(i))
	return v.V[i]
}

// Set simulates a store of element i.
func (v *IVec) Set(m *Mem, i int, x int64) {
	m.Write(v.Addr(i))
	v.V[i] = x
}

// StepGet is Get for step processors; the value is valid only when done.
func (v *IVec) StepGet(m *Mem, i int) (int64, bool) {
	if !m.StepRead(v.Addr(i)) {
		return 0, false
	}
	return v.V[i], true
}

// StepSet is Set for step processors.
func (v *IVec) StepSet(m *Mem, i int, x int64) bool {
	if !m.StepWrite(v.Addr(i)) {
		return false
	}
	v.V[i] = x
	return true
}

// StepReadRange simulates streaming loads of elements [lo, hi).
func (v *IVec) StepReadRange(m *Mem, lo, hi int) bool {
	return m.StepReadRange(v.Addr(lo), (hi-lo)*WordBytes)
}

// StepWriteRange simulates streaming stores of elements [lo, hi).
func (v *IVec) StepWriteRange(m *Mem, lo, hi int) bool {
	return m.StepWriteRange(v.Addr(lo), (hi-lo)*WordBytes)
}
