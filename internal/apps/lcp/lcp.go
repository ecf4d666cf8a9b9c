// Package lcp implements the paper's linear complementarity benchmark
// (§5.4): a multi-sweep successive over-relaxation solver (De Leone,
// Mangasarian & Shiau) for the problem
//
//	Mz + q >= 0,  z >= 0,  z'(Mz + q) = 0,
//
// with a sparse M of uniform non-zeros per row and 4096 variables. The
// matrix rows are statically divided into equal blocks. At each step a
// processor performs a fixed number of projected Gauss-Seidel sweeps on its
// rows against a local copy of the solution vector, then the global solution
// vector is updated and a reduction tests convergence.
//
// Four variants reproduce the paper's Tables 18-23:
//
//   - LCP-MP: local copies exchanged once per step by log(P) point-to-point
//     butterfly exchanges over CMMD channels.
//   - LCP-SM: a single global solution vector; processors sweep against a
//     refreshed local copy and publish their portion at step end.
//   - ALCP-MP: bulk updates sent asynchronously to every other node (star)
//     after each sweep.
//   - ALCP-SM: new values written directly to the global vector as computed.
//
// The asynchronous variants converge in fewer steps but communicate far
// more — the tradeoff the paper measures.
package lcp

import (
	"math"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Params configures an LCP run.
type Params struct {
	// N is the number of variables (the paper uses 4096).
	N int
	// NNZ is the number of off-diagonal non-zeros per row (uniform).
	NNZ int
	// Sweeps is the number of Gauss-Seidel sweeps per step (the paper: 5).
	Sweeps int
	// MaxSteps bounds the outer iteration.
	MaxSteps int
	// Tol is the convergence threshold on the step-to-step change norm.
	Tol float64
	// Omega is the SOR relaxation factor.
	Omega float64
	// LocalFrac is the fraction of each row's non-zeros clustered near the
	// diagonal (within the row's own processor block); the rest are uniform
	// over all columns. The split controls how much convergence depends on
	// cross-processor value freshness — the lever behind the paper's
	// synchronous-vs-asynchronous step counts (43 vs 34).
	LocalFrac float64
	// DiagFactor scales the diagonal relative to the row's off-diagonal
	// mass (> 1 for strict dominance). Weaker dominance slows the global
	// Gauss-Seidel rate and shrinks the asynchronous variant's advantage.
	DiagFactor float64
	// Seed drives the deterministic problem generator.
	Seed uint64
}

// DefaultParams returns the paper's problem size.
func DefaultParams() Params {
	return Params{N: 4096, NNZ: 64, Sweeps: 5, MaxSteps: 200, Tol: 1e-6, Omega: 1.0,
		LocalFrac: 0.5, DiagFactor: 1.2, Seed: 1}
}

// Calibrated computation costs (cycles), shared by all four variants.
const (
	cElem  = 20  // one multiply-add against a sparse row element
	cRow   = 150 // per-row overhead: projection, diagonal divide, bookkeeping
	cStep  = 400 // per-step bookkeeping
	cNorm  = 8   // per-element contribution to the convergence norm
	cSetup = 30  // per-element problem generation
)

// Output carries the simulation result and validation data.
type Output struct {
	Res   *machine.Result
	Steps int // outer steps until convergence (paper: 43 sync, 34-35 async)
	// Z is the computed solution.
	Z []float64
	// Complementarity diagnostics: z >= -ZTol always holds by construction;
	// Residual is max over i of the violation of min(z_i, (Mz+q)_i) = 0.
	Residual float64
}

// problem is the shared sparse system, generated identically for every
// variant.
type problem struct {
	n, nnz int
	cols   [][]int32   // off-diagonal column indices per row
	vals   [][]float64 // off-diagonal values per row
	diag   []float64
	q      []float64
}

// genProblem builds a strictly diagonally dominant sparse M (so projected
// SOR converges) with uniform non-zeros per row, and a q that makes the
// solution non-trivial (a mix of active and inactive constraints).
func genProblem(p Params) *problem {
	pr := &problem{n: p.N, nnz: p.NNZ}
	pr.cols = make([][]int32, p.N)
	pr.vals = make([][]float64, p.N)
	pr.diag = make([]float64, p.N)
	pr.q = make([]float64, p.N)
	for i := 0; i < p.N; i++ {
		rng := sim.NewRNG(p.Seed ^ (uint64(i)+7)*0x9E3779B97F4A7C15)
		cols := make([]int32, p.NNZ)
		vals := make([]float64, p.NNZ)
		sum := 0.0
		nLocal := int(p.LocalFrac * float64(p.NNZ))
		for k := 0; k < p.NNZ; k++ {
			// A LocalFrac share of positions cluster near the diagonal; the
			// rest are uniform (the paper states only a uniform non-zero
			// count per row).
			var c int
			if k < nLocal {
				span := 64
				c = i + rng.Intn(2*span+1) - span
				c = ((c % p.N) + p.N) % p.N
				if c == i {
					c = (c + 1) % p.N
				}
			} else {
				c = rng.Intn(p.N - 1)
				if c >= i {
					c++
				}
			}
			v := -(rng.Float64() * 0.5)
			cols[k] = int32(c)
			vals[k] = v
			sum += math.Abs(v)
		}
		pr.cols[i] = cols
		pr.vals[i] = vals
		// Strict diagonal dominance with a margin chosen so the synchronous
		// multi-sweep scheme converges in a few tens of steps, as in the
		// paper (43 steps): per-step contraction is bounded by the
		// off-diagonal/diagonal ratio because cross-processor values are a
		// step stale.
		pr.diag[i] = float64(p.DiagFactor*sum) + 0.5
		if rng.Float64() < 0.7 {
			pr.q[i] = -rng.Float64() // active constraint: z_i > 0
		} else {
			pr.q[i] = rng.Float64() // inactive: z_i = 0
		}
	}
	return pr
}

// sweepRow performs the projected SOR update for row i against z (read) and
// returns the new z_i.
func (pr *problem) sweepRow(i int, zi float64, z []float64, omega float64) float64 {
	s := pr.q[i] + float64(pr.diag[i]*zi)
	cols, vals := pr.cols[i], pr.vals[i]
	for k := range cols {
		s += float64(vals[k] * z[cols[k]])
	}
	nz := zi - omega*s/pr.diag[i]
	if nz < 0 {
		nz = 0
	}
	return nz
}

// validate computes the complementarity residual of z.
func (pr *problem) validate(z []float64) float64 {
	worst := 0.0
	for i := 0; i < pr.n; i++ {
		w := pr.q[i] + float64(pr.diag[i]*z[i])
		for k := range pr.cols[i] {
			w += float64(pr.vals[i][k] * z[pr.cols[i][k]])
		}
		// Complementarity: min(z_i, w_i) should be 0.
		v := math.Min(z[i], w)
		if math.Abs(v) > worst {
			worst = math.Abs(v)
		}
		if z[i] < 0 {
			worst = math.Inf(1)
		}
	}
	return worst
}

func rowsPerProc(n, procs int) int {
	if n%procs != 0 {
		panic("lcp: N must be divisible by the processor count")
	}
	return n / procs
}
