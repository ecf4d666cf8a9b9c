// Package mse implements the paper's Microstructure Electrostatics
// benchmark (§5.1): boundary-integral solutions of the Laplace equation for
// an N-body system in which each body is discretized into M boundary
// elements. The (NM)² system matrix cannot be stored, so interaction
// coefficients are recomputed from element positions as needed — the
// benchmark is overwhelmingly computation-bound (90% of MSE-MP's time).
//
// The solver is parallel asynchronous Jacobi over a global solution vector.
// Communication passes through that vector under a distance-based update
// schedule: distant bodies interact weakly and exchange solutions less
// frequently, which drastically reduces communication at a slight cost in
// iterations to converge.
//
// MSE-MP keeps a full local copy of the solution vector per processor;
// scheduled updates are asynchronous requests answered by streaming the
// requested segment, serviced opportunistically while computing. MSE-SM
// keeps the vector in shared memory: processors read remote portions
// directly and publish their own, with a single start-up/init phase on
// processor 0 (the paper's 80M-cycle serial initialization).
package mse

import (
	"math"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Params configures an MSE run.
type Params struct {
	// Bodies is N (the paper: 256).
	Bodies int
	// Elems is M, boundary elements per body (the paper: 20).
	Elems int
	// Iters is the number of Jacobi iterations (the paper: 20).
	Iters int
	// Seed drives the deterministic geometry generator.
	Seed uint64
}

// DefaultParams returns the paper's workload.
func DefaultParams() Params { return Params{Bodies: 256, Elems: 20, Iters: 20, Seed: 1} }

// Calibrated computation costs (cycles).
const (
	cKernel = 50   // one boundary-integral coefficient evaluation + MAC
	cElem   = 90   // per-element Jacobi bookkeeping (diagonal solve, store)
	cInit   = 3600 // per-element initialization work (geometry, self terms)
	// cSerialPerElem scales processor 0's serial setup (replicated on every
	// node in MSE-MP): at the paper's 5120 elements it is the ~80M cycles
	// during which the other shared-memory processors sit idle.
	cSerialPerElem = 15_600
	cSchedule      = 900 // per-peer scheduling decision per iteration
)

// serialInitCycles is the serial initialization charge for a problem of nm
// elements.
func serialInitCycles(nm int) int64 { return cSerialPerElem * int64(nm) }

// Output carries the simulation result plus validation data.
type Output struct {
	Res *machine.Result
	// X is the final solution vector.
	X []float64
	// RefErr is the max abs deviation from the deterministic scheduled-
	// Jacobi reference (exact for MP; loose for SM, whose asynchronous
	// reads race ahead nondeterministically, as on the real machine).
	RefErr float64
	// Residual is the max abs residual of A·x - b, normalized by the
	// diagonal — small once the iteration has converged.
	Residual float64
}

// problem holds the geometry and derived quantities shared by both
// versions. The full matrix is never materialized; coefficients come from
// the kernel, exactly as the applications recompute them.
type problem struct {
	n, m    int // bodies, elements per body
	nm      int
	pos     [][3]float64 // element positions (body-major)
	centers [][3]float64 // body centers
	nearCut float64      // refined-quadrature distance threshold
	diag    []float64    // diagonal (self) terms, made strictly dominant
	b       []float64    // right-hand side
	xtrue   []float64    // the solution b was built from
	// periods[p][q] is the update period between processor p and q
	// (1 = every iteration; distant pairs exchange less often).
	periods [][]int
}

// kernel is the off-diagonal interaction coefficient between elements i, j.
func (pr *problem) kernel(i, j int) float64 {
	dx := pr.pos[i][0] - pr.pos[j][0]
	dy := pr.pos[i][1] - pr.pos[j][1]
	dz := pr.pos[i][2] - pr.pos[j][2]
	return 1 / (4 * math.Pi * math.Sqrt(float64(dx*dx)+float64(dy*dy)+float64(dz*dz)))
}

func genProblem(par Params, procs int) *problem {
	pr := &problem{n: par.Bodies, m: par.Elems, nm: par.Bodies * par.Elems}
	rng := sim.NewRNG(par.Seed)
	// Bodies cluster into aggregates, as physical microstructures do: a
	// few cluster sites in the domain, bodies scattered tightly around
	// them. Close pairs need refined quadrature, so processors owning
	// denser clusters carry more work — the source of the load imbalance
	// the paper observes (the 80M-cycle barrier wait in MSE-SM, the same
	// wait folded into library time in MSE-MP).
	side := 40.0 * math.Cbrt(float64(par.Bodies))
	nClusters := par.Bodies/32 + 1
	sites := make([][3]float64, nClusters)
	for c := range sites {
		sites[c] = [3]float64{rng.Float64() * side, rng.Float64() * side, rng.Float64() * side}
	}
	centers := make([][3]float64, par.Bodies)
	for b := range centers {
		site := sites[rng.Intn(nClusters)]
		spread := side / 12
		centers[b] = [3]float64{
			site[0] + float64((rng.Float64()-0.5)*spread),
			site[1] + float64((rng.Float64()-0.5)*spread),
			site[2] + float64((rng.Float64()-0.5)*spread),
		}
	}
	pr.centers = centers
	pr.nearCut = side / 10
	pr.pos = make([][3]float64, pr.nm)
	for b := 0; b < par.Bodies; b++ {
		for e := 0; e < par.Elems; e++ {
			pr.pos[b*par.Elems+e] = [3]float64{
				centers[b][0] + rng.Float64(),
				centers[b][1] + rng.Float64(),
				centers[b][2] + rng.Float64(),
			}
		}
	}
	// Strictly dominant diagonal and a right-hand side with known solution.
	pr.diag = make([]float64, pr.nm)
	pr.xtrue = make([]float64, pr.nm)
	pr.b = make([]float64, pr.nm)
	for i := 0; i < pr.nm; i++ {
		sum := 0.0
		for j := 0; j < pr.nm; j++ {
			if j != i {
				sum += math.Abs(pr.kernel(i, j))
			}
		}
		pr.diag[i] = float64(2.5*sum) + 0.1
		pr.xtrue[i] = 1 + float64(0.5*float64(i%9))
	}
	for i := 0; i < pr.nm; i++ {
		s := pr.diag[i] * pr.xtrue[i]
		for j := 0; j < pr.nm; j++ {
			if j != i {
				s += float64(pr.kernel(i, j) * pr.xtrue[j])
			}
		}
		pr.b[i] = s
	}
	// Distance-based update schedule at processor-pair granularity: the
	// period is set by the closest pair of bodies owned by the two
	// processors.
	bpp := par.Bodies / procs
	pr.periods = make([][]int, procs)
	for p := 0; p < procs; p++ {
		pr.periods[p] = make([]int, procs)
		for q := 0; q < procs; q++ {
			if p == q {
				pr.periods[p][q] = 1
				continue
			}
			min := math.Inf(1)
			for bi := p * bpp; bi < (p+1)*bpp; bi++ {
				for bj := q * bpp; bj < (q+1)*bpp; bj++ {
					dx := centers[bi][0] - centers[bj][0]
					dy := centers[bi][1] - centers[bj][1]
					dz := centers[bi][2] - centers[bj][2]
					if d := math.Sqrt(float64(dx*dx) + float64(dy*dy) + float64(dz*dz)); d < min {
						min = d
					}
				}
			}
			switch {
			case min < side/2:
				pr.periods[p][q] = 1
			case min < 3*side/4:
				pr.periods[p][q] = 2
			default:
				pr.periods[p][q] = 4
			}
		}
	}
	return pr
}

// near reports whether bodies b and c are close enough to need refined
// quadrature (double the kernel work) — the physically motivated source of
// the load imbalance the paper observes.
func (pr *problem) near(b, c int) bool {
	if b == c {
		return true
	}
	// One assignment keeps near within the inlining budget.
	dx, dy, dz := pr.centers[b][0]-pr.centers[c][0],
		pr.centers[b][1]-pr.centers[c][1],
		pr.centers[b][2]-pr.centers[c][2]
	return math.Sqrt(float64(dx*dx)+float64(dy*dy)+float64(dz*dz)) < pr.nearCut
}

// due reports whether p refreshes its snapshot of q's values at iteration t
// (1-based).
func (pr *problem) due(p, q, t int) bool {
	return (t-1)%pr.periods[p][q] == 0
}

// reference runs the scheduled asynchronous-Jacobi iteration sequentially
// with the bulk-synchronous staleness pattern (snapshots refreshed at
// iteration start with the previous iteration's published values) and
// returns the final vector. The MP version reproduces it exactly.
func (pr *problem) reference(procs, iters int) []float64 {
	nm := pr.nm
	x := make([]float64, nm)
	pub := make([]float64, nm) // published at the end of the prior iteration
	snap := make([][]float64, procs)
	for p := range snap {
		snap[p] = make([]float64, nm)
	}
	epp := nm / procs
	for t := 1; t <= iters; t++ {
		for p := 0; p < procs; p++ {
			for q := 0; q < procs; q++ {
				if pr.due(p, q, t) {
					copy(snap[p][q*epp:(q+1)*epp], pub[q*epp:(q+1)*epp])
				}
			}
		}
		next := make([]float64, nm)
		for p := 0; p < procs; p++ {
			for i := p * epp; i < (p+1)*epp; i++ {
				s := pr.b[i]
				for j := 0; j < nm; j++ {
					if j == i {
						continue
					}
					s -= float64(pr.kernel(i, j) * snap[p][j])
				}
				next[i] = s / pr.diag[i]
			}
		}
		copy(x, next)
		copy(pub, x)
	}
	return x
}

func (o *Output) validate(pr *problem, ref []float64) {
	for i, v := range o.X {
		if d := math.Abs(v - ref[i]); d > o.RefErr {
			o.RefErr = d
		}
	}
	for i, v := range o.X {
		s := pr.diag[i] * v
		for j := 0; j < pr.nm; j++ {
			if j != i {
				s += float64(pr.kernel(i, j) * o.X[j])
			}
		}
		if r := math.Abs(s-pr.b[i]) / pr.diag[i]; r > o.Residual {
			o.Residual = r
		}
	}
}
