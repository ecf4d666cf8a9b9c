// Package em3d implements the paper's EM3D benchmark (§5.3): propagation of
// electromagnetic waves through three-dimensional objects, framed as a
// computation on a bipartite graph. E nodes update from the weighted sum of
// neighboring H nodes, then H nodes update from the new E values. Edges and
// weights are static; a user-specified percentage of edges cross processor
// boundaries (to the ring neighbors, as in the Split-C original — hence the
// paper's 200 channel writes for 100 half-steps).
//
// The message-passing version follows the Split-C code: ghost nodes shadow
// remote sources — one ghost per remote edge, which simplifies
// initialization at slightly higher transfer volume — and each half-step's
// remote values travel in one bulk channel write per neighbor. All
// communication is lifted out of the main loop.
//
// The shared-memory version has no ghosts: caching provides the temporal
// locality, at the cost of the protocol's four-message producer-consumer
// pattern the paper dissects. Node value fields live in separate per-owner
// vectors (the paper's spatial-locality optimization); graph construction
// uses locks and remote writes to register edges at their sinks.
package em3d

import (
	"math"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Accounting phases (paper Tables 12/14 split initialization from the main
// loop).
const (
	PhaseInit stats.Phase = 0
	PhaseMain stats.Phase = 1
)

// Params configures an EM3D run.
type Params struct {
	// NodesPer is the number of E nodes (and H nodes) per processor
	// (the paper: 1000 + 1000).
	NodesPer int
	// Degree is each node's in-degree (the paper: 10).
	Degree int
	// RemotePct is the percentage of edges whose source is remote
	// (the paper: 20).
	RemotePct int
	// Iters is the number of full E+H iterations (the paper: 50).
	Iters int
	// Seed drives the deterministic graph generator.
	Seed uint64
	// Flush selects the software flush the paper proposes (§5.3.4, RunSM
	// only): after consuming a remote value the consumer flushes its cached
	// copy, turning the producer's next two-message invalidation round into
	// a silent single-message replacement. (The paper notes the benefit
	// shrinks as the data set outgrows the cache, since lines are often
	// evicted anyway.)
	Flush bool
}

// DefaultParams returns the paper's workload.
func DefaultParams() Params {
	return Params{NodesPer: 1000, Degree: 10, RemotePct: 20, Iters: 50, Seed: 1}
}

// Calibrated computation costs (cycles), shared by both versions.
const (
	cMac     = 25   // one weighted-sum term (load weight, load value, multiply-add)
	cNode    = 55   // per-node loop overhead and final store
	cBuildMP = 1800 // per-edge construction in EM3D-MP: generation, ghost wiring,
	// reverse-graph precomputation (paper init computation: 18.2M cycles)
	cBuildSM = 750 // per-edge construction in EM3D-SM: generation plus the
	// shared-structure registration logic around the simulated lock/writes
	cGather = 27 // per-value send-buffer gather (MP only; the paper measures
	// this "cost of managing calls to communication routines" at 5.4M cycles)
	cSetup = 120 // per-node allocation/initialization
)

// edge is a directed graph edge: the source node (owner processor and index
// within its vector) and the weight.
type edge struct {
	srcProc int32
	srcIdx  int32
	w       float64
}

// graph is the full bipartite problem, generated identically for both
// machine versions. eIn[p] lists the in-edges of processor p's E nodes
// (node-major, Degree entries per node), sourced from H nodes; hIn is the
// mirror for H nodes sourced from E nodes.
type graph struct {
	procs, nodesPer, deg int
	eIn                  [][]edge
	hIn                  [][]edge
	e0, h0               [][]float64 // initial values
}

func genGraph(par Params, procs int) *graph {
	g := &graph{procs: procs, nodesPer: par.NodesPer, deg: par.Degree}
	g.eIn = make([][]edge, procs)
	g.hIn = make([][]edge, procs)
	g.e0 = make([][]float64, procs)
	g.h0 = make([][]float64, procs)
	for p := 0; p < procs; p++ {
		rng := sim.NewRNG(par.Seed ^ (uint64(p)+3)*0x9E3779B97F4A7C15)
		g.eIn[p] = genEdges(rng, p, procs, par)
		g.hIn[p] = genEdges(rng, p, procs, par)
		g.e0[p] = make([]float64, par.NodesPer)
		g.h0[p] = make([]float64, par.NodesPer)
		for i := range g.e0[p] {
			g.e0[p][i] = rng.Float64() - 0.5
			g.h0[p][i] = rng.Float64() - 0.5
		}
	}
	return g
}

// genEdges generates Degree in-edges per node. Remote sources go to the
// ring neighbors, split evenly between them.
func genEdges(rng *sim.RNG, p, procs int, par Params) []edge {
	edges := make([]edge, par.NodesPer*par.Degree)
	for i := range edges {
		srcProc := p
		if procs > 1 && rng.Intn(100) < par.RemotePct {
			if rng.Intn(2) == 0 {
				srcProc = (p + 1) % procs
			} else {
				srcProc = (p - 1 + procs) % procs
			}
		}
		edges[i] = edge{
			srcProc: int32(srcProc),
			srcIdx:  int32(rng.Intn(par.NodesPer)),
			w:       rng.Float64() * 0.1,
		}
	}
	return edges
}

// reference runs the computation sequentially and returns the final E and H
// values, for validating both simulated versions.
func (g *graph) reference(iters int) (e, h [][]float64) {
	e = make([][]float64, g.procs)
	h = make([][]float64, g.procs)
	for p := 0; p < g.procs; p++ {
		e[p] = append([]float64(nil), g.e0[p]...)
		h[p] = append([]float64(nil), g.h0[p]...)
	}
	for it := 0; it < iters; it++ {
		for p := 0; p < g.procs; p++ {
			for i := 0; i < g.nodesPer; i++ {
				s := 0.0
				for k := 0; k < g.deg; k++ {
					ed := g.eIn[p][i*g.deg+k]
					s += float64(ed.w * h[ed.srcProc][ed.srcIdx])
				}
				e[p][i] = s
			}
		}
		for p := 0; p < g.procs; p++ {
			for i := 0; i < g.nodesPer; i++ {
				s := 0.0
				for k := 0; k < g.deg; k++ {
					ed := g.hIn[p][i*g.deg+k]
					s += float64(ed.w * e[ed.srcProc][ed.srcIdx])
				}
				h[p][i] = s
			}
		}
	}
	return e, h
}

// Output carries the simulation result plus validation data.
type Output struct {
	Res *machine.Result
	// E and H are the final values per processor from the simulated run.
	E, H [][]float64
	// MaxErr is the maximum absolute deviation from the sequential
	// reference.
	MaxErr float64
}

func (o *Output) validate(g *graph, iters int) {
	re, rh := g.reference(iters)
	for p := range re {
		for i := range re[p] {
			if d := math.Abs(o.E[p][i] - re[p][i]); d > o.MaxErr {
				o.MaxErr = d
			}
			if d := math.Abs(o.H[p][i] - rh[p][i]); d > o.MaxErr {
				o.MaxErr = d
			}
		}
	}
}

// neighbors returns the sorted unique ring neighbors of p.
func neighbors(p, procs int) []int {
	if procs == 1 {
		return nil
	}
	a, b := (p-1+procs)%procs, (p+1)%procs
	if a == b {
		return []int{a}
	}
	if a > b {
		a, b = b, a
	}
	return []int{a, b}
}
