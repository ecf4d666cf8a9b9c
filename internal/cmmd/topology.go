package cmmd

import "repro/internal/cost"

// Topology is the collective trees of one machine: for the configured Shape,
// every node's parent and children in virtual-rank space (rank 0 = the
// collective's root; Comm.vrank and Comm.actual rotate a real root onto it,
// so one tree serves every root). The machine builds it once, before any
// processor runs, and hands the same value to every node's Comm; nothing
// writes it afterwards, so pool workers read it without synchronisation.
type Topology struct {
	Shape Shape

	scalar tree // reductions and scalar broadcasts
	vec    tree // StepBcastVecF's stream; see vecShape
}

// tree is one rooted tree over virtual ranks 0..p-1. The children of v are
// child[start[v]:start[v+1]], ascending — the order a node sends to them in,
// which is simulated timing.
type tree struct {
	parent []int // parent[0] = -1
	start  []int
	child  []int
}

func (t *tree) children(v int) []int { return t.child[t.start[v]:t.start[v+1]] }

// vecShape is the tree a vector broadcast streams over. Bulk streams
// pipeline poorly through the lop-sided tree's wide root fan-out; the tuned
// implementation (the paper's "active messages and channels") streams rows
// over a binary tree. Flat stays flat — that is the ablation's pathological
// case.
func vecShape(shape Shape) Shape {
	if shape == LopSided {
		return Binary
	}
	return shape
}

// NewTopology builds the trees of the given shape over cfg.Procs nodes. The
// lop-sided tree is cut to the machine's own send overhead, receive overhead
// and wire latency.
func NewTopology(cfg *cost.Config, shape Shape) *Topology {
	t := &Topology{Shape: shape, scalar: newTree(cfg, shape)}
	if vs := vecShape(shape); vs == shape {
		t.vec = t.scalar
	} else {
		t.vec = newTree(cfg, vs)
	}
	return t
}

func newTree(cfg *cost.Config, shape Shape) tree {
	p := cfg.Procs
	var parent []int
	switch shape {
	case Flat:
		parent = make([]int, p) // every node hangs off rank 0
	case Binary:
		parent = make([]int, p)
		for v := 1; v < p; v++ {
			parent[v] = (v - 1) / 2
		}
	case LopSided:
		parent = lopsidedParents(cfg)
	default:
		panic("cmmd: unknown tree shape")
	}
	parent[0] = -1

	// Children by counting sort on the parent: filling in ascending v leaves
	// every child list ascending.
	start := make([]int, p+1)
	for v := 1; v < p; v++ {
		start[parent[v]+1]++
	}
	for v := 0; v < p; v++ {
		start[v+1] += start[v]
	}
	child := make([]int, p-1)
	fill := make([]int, p)
	copy(fill, start)
	for v := 1; v < p; v++ {
		child[fill[parent[v]]] = v
		fill[parent[v]]++
	}
	return tree{parent: parent, start: start, child: child}
}

// lopsidedParents computes the LogP greedy broadcast tree: a priority queue
// of informed nodes by next-free time; the earliest-free node informs the
// next rank. o is the per-message send overhead, L the wire latency, and the
// receive overhead delays when a child may start forwarding.
func lopsidedParents(cfg *cost.Config) []int {
	o := cfg.AMSendCycles + cfg.NIWriteTagDest + cfg.NISendCycles
	oR := cfg.AMDispatchCycles + cfg.NIStatusCycles + cfg.NIRecvCycles
	L := cfg.NetLatency

	p := cfg.Procs
	par := make([]int, p)
	h := make(lopHeap, 1, p) // {t: 0, v: 0}; grows by one node per informed rank
	for next := 1; next < p; next++ {
		// The sender stays in the heap with its next free slot; the rank it
		// informed joins once the message has landed and been dispatched.
		s := h[0]
		par[next] = s.v
		h[0].t = s.t + o
		h.down(0)
		h = append(h, lopNode{t: s.t + o + L + oR, v: next})
		h.up(len(h) - 1)
	}
	return par
}

// lopNode is an informed node: rank v can next send at time t.
type lopNode struct {
	t int64
	v int
}

// lopHeap is a binary min-heap of informed nodes by (next-free time, rank).
type lopHeap []lopNode

func (h lopHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].v < h[j].v
}

func (h lopHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h lopHeap) down(i int) {
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h.less(c, least) {
				least = c
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
