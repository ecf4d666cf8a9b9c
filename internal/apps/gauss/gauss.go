// Package gauss implements the paper's Gaussian-elimination benchmark
// (§5.2) in both message-passing and shared-memory forms.
//
// The program solves a dense linear system with partial pivoting: a forward
// elimination phase (pivot selection by reduction, pivot announcement and
// pivot-row distribution by broadcast, then local row updates) followed by
// backward substitution (each solved unknown broadcast to all). Rows are
// distributed blockwise and never redistributed; a local mask tracks retired
// rows, exactly as the paper describes.
//
// The message-passing version uses the software reduction/broadcast trees
// whose tuning the paper recounts (flat → binary → lop-sided); the
// shared-memory version uses MCS-style reductions and broadcasts a value "by
// letting all processors read it" after a barrier.
package gauss

import (
	"math"

	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/sim"
)

// Params configures a Gauss run.
type Params struct {
	// N is the number of variables (the paper uses 512).
	N int
	// Seed drives the deterministic matrix generator.
	Seed uint64
}

// elemBytes is the simulated matrix element size: the Gauss codes work in
// single precision (the paper's per-processor miss counts and transmitted
// data bytes match 4-byte, not 8-byte, rows).
const elemBytes = 4

// Calibrated per-operation computation costs (cycles). One set of constants
// is shared by the MP and SM versions, so the comparison between them —
// the paper's point — is independent of the absolute calibration. The
// values target the paper's ~40M computation cycles per processor at
// N=512 on 32 nodes (Tables 8 and 9).
const (
	cFill  = 14  // generate + store one matrix element
	cScan  = 16  // examine one candidate pivot element (mask check, abs, cmp)
	cElim  = 28  // one multiply-subtract row-update element
	cDiv   = 40  // one division (pivot factor, solved unknown)
	cRow   = 90  // per-row loop overhead in elimination
	cBack  = 22  // one backward-substitution update element
	cPivot = 120 // bookkeeping per pivot step
)

// Output carries the simulation result plus numerical validation data.
type Output struct {
	Res *machine.Result
	// X is the computed solution (gathered from the simulated program).
	X []float64
	// MaxErr is the maximum |x[i] - xTrue[i]| against the generated truth.
	MaxErr float64
}

// trueX returns the known solution the right-hand side is built from.
func trueX(i int) float64 { return 1 + float64(float64(i%7)*0.5) }

// genRow deterministically generates global row i of the augmented matrix
// (N coefficients plus the right-hand side) for an N-variable system. The
// entries are uniform random, as in the paper ("each processor fills its
// rows with random numbers"); partial pivoting provides the numerical
// stability, and — importantly for load balance — makes pivot rows retire
// uniformly across processors rather than in block order.
func genRow(seed uint64, i, n int) []float64 {
	rng := sim.NewRNG(seed ^ (uint64(i)+1)*0x9E3779B97F4A7C15)
	row := make([]float64, n+1)
	for j := 0; j < n; j++ {
		row[j] = rng.Float64() - 0.5
	}
	rhs := 0.0
	for j := 0; j < n; j++ {
		rhs += float64(row[j] * trueX(j))
	}
	row[n] = rhs
	return row
}

func (o *Output) validate(x []float64) {
	o.X = x
	for i, v := range x {
		if e := math.Abs(v - trueX(i)); e > o.MaxErr {
			o.MaxErr = e
		}
	}
}

func rowsPerProc(n, procs int) int {
	if n%procs != 0 {
		panic("gauss: N must be divisible by the processor count")
	}
	return n / procs
}

// myRows is what both programs do to a node's own rows, identically on the
// two machines: fill them, search them for a pivot candidate, eliminate a
// column from them, solve a pivot row's unknown, and fold a solved unknown
// into their right-hand sides. Each is a resumable loop over the rows: it
// returns false where a memory access must wait (the caller gives up the
// processor and calls it again with the same arguments) and true, with the
// cursor reset, when the loop is done. Every host-side effect happens once,
// on the access that completes.
type myRows struct {
	m    *memsim.Mem
	a    *memsim.FVec // holds my rows: a private vector on MP, the shared matrix on SM
	base int          // element offset of my first row in a
	mask memsim.IVec  // step at which each of my rows retired, or -1

	n, width, rpp, lo int // width = n + 1: rows are augmented with the right-hand side

	r   int   // row cursor
	sub uint8 // phase within row r: 0 reads its mask entry
	// The pivot search's candidate: max |a[r][k]| over unretired rows.
	best    float64
	bestRow int64
	f, rhs  float64 // row r's elimination factor; a right-hand side being computed
}

// row returns the element offset of my row r in a.
func (w *myRows) row(r int) int { return w.base + r*w.width }

// pass runs body on each of my rows whose mask entry is below limit (limit
// 0: the unretired rows), moving to the next row when body reports the row
// done. body resumes at w.sub, which starts at 1.
func (w *myRows) pass(limit int64, body func(row int) bool) bool {
	for w.r < w.rpp {
		if w.sub == 0 {
			ret, ok := w.mask.StepGet(w.m, w.r)
			if !ok {
				return false
			}
			if ret >= limit {
				w.r++
				continue
			}
			w.sub = 1
		}
		if !body(w.row(w.r)) {
			return false
		}
		w.r, w.sub = w.r+1, 0
	}
	w.r = 0
	return true
}

// fill generates each of my rows into the host copy, stores it, and marks
// it unretired.
func (w *myRows) fill(seed uint64) bool {
	for ; w.r < w.rpp; w.r, w.sub = w.r+1, 0 {
		row := w.row(w.r)
		switch w.sub {
		case 0:
			copy(w.a.V[row:row+w.width], genRow(seed, w.lo+w.r, w.n))
			w.sub = 1
			fallthrough
		case 1:
			if !w.a.StepWriteRange(w.m, row, row+w.width) {
				return false
			}
			w.m.P.Compute(int64(cFill * w.width))
			w.sub = 2
		}
		if !w.mask.StepSet(w.m, w.r, -1) {
			return false
		}
	}
	w.r, w.sub = 0, 0
	return true
}

// scan is column k's local pivot search, leaving the candidate in best and
// bestRow.
func (w *myRows) scan(k int) bool {
	if w.r == 0 && w.sub == 0 {
		w.best, w.bestRow = 0, -1 // idempotent: nothing is scanned yet
	}
	return w.pass(0, func(row int) bool {
		v, ok := w.a.StepGet(w.m, row+k)
		if !ok {
			return false
		}
		if math.Abs(v) > math.Abs(w.best) || w.bestRow < 0 {
			w.best, w.bestRow = v, int64(w.lo+w.r)
		}
		w.m.P.Compute(cScan)
		return true
	})
}

// elim eliminates column k from my unretired rows, given the pivot element
// and the pivot row at element pbase of pv.
func (w *myRows) elim(k int, piv float64, pv *memsim.FVec, pbase int) bool {
	return w.pass(0, func(row int) bool {
		switch w.sub {
		case 1:
			v, ok := w.a.StepGet(w.m, row+k)
			if !ok {
				return false
			}
			w.f = v / piv
			w.m.P.Compute(cDiv + cRow)
			w.sub = 2
			fallthrough
		case 2:
			if !pv.StepReadRange(w.m, pbase+k, pbase+w.width) {
				return false
			}
			w.sub = 3
			fallthrough
		case 3:
			if !w.a.StepReadRange(w.m, row+k, row+w.width) {
				return false
			}
			for j := k; j < w.width; j++ {
				w.a.V[row+j] -= float64(w.f * pv.V[pbase+j])
			}
			w.sub = 4
		}
		if !w.a.StepWriteRange(w.m, row+k, row+w.width) {
			return false
		}
		w.m.P.Compute(int64(cElim * (w.width - k)))
		return true
	})
}

// solve is the pivot owner's step k of backward substitution: x[k] from my
// row r, valid only when done.
func (w *myRows) solve(k, r int) (float64, bool) {
	row := w.row(r)
	if w.sub == 0 {
		v, ok := w.a.StepGet(w.m, row+w.n)
		if !ok {
			return 0, false
		}
		w.rhs = v
		w.sub = 1
	}
	d, ok := w.a.StepGet(w.m, row+k)
	if !ok {
		return 0, false
	}
	w.m.P.Compute(cDiv)
	w.sub = 0
	return w.rhs / d, true
}

// fold folds the solved x[k] into the right-hand sides of my still-unsolved
// rows: those retired before step k.
func (w *myRows) fold(k int, xk float64) bool {
	return w.pass(int64(k), func(row int) bool {
		switch w.sub {
		case 1:
			v, ok := w.a.StepGet(w.m, row+w.n)
			if !ok {
				return false
			}
			w.rhs = v
			w.sub = 2
			fallthrough
		case 2:
			v, ok := w.a.StepGet(w.m, row+k)
			if !ok {
				return false
			}
			w.rhs = w.rhs - float64(v*xk)
			w.sub = 3
		}
		if !w.a.StepSet(w.m, row+w.n, w.rhs) {
			return false
		}
		w.m.P.Compute(cBack)
		return true
	})
}
