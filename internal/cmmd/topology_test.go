package cmmd

import (
	"container/heap"
	"slices"
	"testing"

	"repro/internal/cost"
)

// oracleTopology is the per-call tree construction the Topology replaced,
// kept as the reference: parent and children of vrank by scanning all p
// parents; lop is oracleLopsided's tree, which each Comm used to build and
// cache for itself.
func oracleTopology(lop []int, shape Shape, vrank, p int) (parent int, children []int) {
	switch shape {
	case Flat:
		if vrank == 0 {
			for i := 1; i < p; i++ {
				children = append(children, i)
			}
			return -1, children
		}
		return 0, nil
	case Binary:
		for _, ch := range []int{2*vrank + 1, 2*vrank + 2} {
			if ch < p {
				children = append(children, ch)
			}
		}
		if vrank == 0 {
			return -1, children
		}
		return (vrank - 1) / 2, children
	case LopSided:
		for v := 1; v < p; v++ {
			if lop[v] == vrank {
				children = append(children, v)
			}
		}
		return lop[vrank], children
	}
	panic("unknown tree shape")
}

func oracleLopsided(cfg *cost.Config, p int) []int {
	o := cfg.AMSendCycles + cfg.NIWriteTagDest + cfg.NISendCycles
	oR := cfg.AMDispatchCycles + cfg.NIStatusCycles + cfg.NIRecvCycles
	L := cfg.NetLatency

	par := make([]int, p)
	par[0] = -1
	h := &oracleHeap{{t: 0, v: 0}}
	next := 1
	for next < p {
		s := heap.Pop(h).(lopNode)
		par[next] = s.v
		heap.Push(h, lopNode{t: s.t + o, v: s.v})
		heap.Push(h, lopNode{t: s.t + o + L + oR, v: next})
		next++
	}
	return par
}

type oracleHeap []lopNode

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].v < h[j].v
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(lopNode)) }
func (h *oracleHeap) Pop() any     { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// TestTopologyMatchesOracle pins the machine-wide trees to the construction
// they replaced: same parent and the same children in the same (ascending)
// order — child order is the order a node sends in, so it is simulated
// timing — for every shape, for the scalar tree and the vector-broadcast
// tree, at every small machine size and two large ones, and as real node ids
// under three roots.
func TestTopologyMatchesOracle(t *testing.T) {
	sizes := []int{256, 1024}
	for p := 1; p <= 70; p++ {
		sizes = append(sizes, p)
	}
	for _, shape := range []Shape{Flat, Binary, LopSided} {
		for _, p := range sizes {
			cfg := cost.Default(p)
			topo := NewTopology(&cfg, shape)
			if topo.Shape != shape {
				t.Fatalf("%v P=%d: Topology.Shape = %v", shape, p, topo.Shape)
			}
			type ref struct {
				parent   int
				children []int
			}
			lop := oracleLopsided(&cfg, p)
			reference := func(s Shape) []ref {
				refs := make([]ref, p)
				for v := 0; v < p; v++ {
					refs[v].parent, refs[v].children = oracleTopology(lop, s, v, p)
				}
				return refs
			}
			for _, tc := range []struct {
				name string
				tr   *tree
				refs []ref
			}{
				{"scalar", &topo.scalar, reference(shape)},
				{"vec", &topo.vec, reference(vecShape(shape))},
			} {
				for v := 0; v < p; v++ {
					if got, want := tc.tr.parent[v], tc.refs[v].parent; got != want {
						t.Fatalf("%v %s P=%d: parent(%d) = %d, want %d", shape, tc.name, p, v, got, want)
					}
					if got, want := tc.tr.children(v), tc.refs[v].children; !slices.Equal(got, want) {
						t.Fatalf("%v %s P=%d: children(%d) = %v, want %v", shape, tc.name, p, v, got, want)
					}
				}
			}

			// As the collectives read it: a real root rotated onto rank 0,
			// parent and children as real node ids.
			refs := reference(shape)
			for _, root := range []int{0, 1, p - 1} {
				if root >= p {
					continue
				}
				nodeOf := func(rank int) int {
					if rank < 0 {
						return -1
					}
					return (rank + root) % p
				}
				for id := 0; id < p; id++ {
					c := &Comm{ep: &Endpoint{Self: id, Nodes: p}, topo: topo}
					vr := c.vrank(id, root)
					want := refs[(id-root+p)%p]
					got := -1
					if par := topo.scalar.parent[vr]; par >= 0 {
						got = c.actual(par, root)
					}
					if got != nodeOf(want.parent) {
						t.Fatalf("%v P=%d root=%d: node %d has parent node %d, want %d", shape, p, root, id, got, nodeOf(want.parent))
					}
					var kids, wantKids []int
					for _, ch := range topo.scalar.children(vr) {
						kids = append(kids, c.actual(ch, root))
					}
					for _, ch := range want.children {
						wantKids = append(wantKids, nodeOf(ch))
					}
					if !slices.Equal(kids, wantKids) {
						t.Fatalf("%v P=%d root=%d: node %d sends to nodes %v, want %v", shape, p, root, id, kids, wantKids)
					}
				}
			}
		}
	}
}

// TestTopologyNonDefaultCosts: the lop-sided tree is cut to the machine's
// overheads and latency, so it must follow a config that changes them.
func TestTopologyNonDefaultCosts(t *testing.T) {
	cfg := cost.Default(48)
	cfg.NetLatency *= 7
	cfg.AMSendCycles += 13
	topo := NewTopology(&cfg, LopSided)
	par := oracleLopsided(&cfg, cfg.Procs)
	if !slices.Equal(topo.scalar.parent, par) {
		t.Fatalf("parents = %v, want %v", topo.scalar.parent, par)
	}
	def := cost.Default(48)
	if slices.Equal(par, oracleLopsided(&def, def.Procs)) {
		t.Fatal("test bug: the changed costs left the lop-sided tree unchanged")
	}
}
