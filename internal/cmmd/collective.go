package cmmd

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/memsim"
	"repro/internal/ni"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Shape selects the software reduction/broadcast tree. The machines provide
// no broadcast or reduction hardware (paper §4: removed to study the cost of
// software implementations), so these operations are built from active
// messages. The paper's Gauss tuning walked exactly this progression: a flat
// broadcast (119.3M cycles), a binary tree (40.9M), and finally a lop-sided
// tree suggested by the LogP model (30.1M), whose structure minimizes the
// effect of send/receive overhead exceeding network latency.
type Shape int

const (
	// Flat has the root send to every other node in turn.
	Flat Shape = iota
	// Binary is a balanced binary tree.
	Binary
	// LopSided is the LogP-optimal greedy schedule: every informed node
	// keeps sending to uninformed nodes as fast as its send overhead
	// allows, so early subtrees are much larger than late ones.
	LopSided
)

// String names the shape.
func (s Shape) String() string {
	switch s {
	case Flat:
		return "flat"
	case Binary:
		return "binary"
	case LopSided:
		return "lop-sided"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// ReduceOp is a combining operator for reductions. Operators combine a
// (value, index) pair so that pivot selection (max |value| with owning row)
// needs a single reduction.
type ReduceOp int

const (
	// OpSum adds values; indexes are ignored.
	OpSum ReduceOp = iota
	// OpMax keeps the larger value and its index.
	OpMax
	// OpMin keeps the smaller value and its index.
	OpMin
	// OpMaxAbs keeps the value of larger magnitude and its index.
	OpMaxAbs
)

func combine(op ReduceOp, v1 float64, i1 int64, v2 float64, i2 int64) (float64, int64) {
	switch op {
	case OpSum:
		return v1 + v2, 0
	case OpMax:
		if v2 > v1 {
			return v2, i2
		}
		return v1, i1
	case OpMin:
		if v2 < v1 {
			return v2, i2
		}
		return v1, i1
	case OpMaxAbs:
		if math.Abs(v2) > math.Abs(v1) {
			return v2, i2
		}
		return v1, i1
	}
	panic(fmt.Sprintf("cmmd: unknown reduce op %d", op))
}

// Comm provides software collectives over an endpoint. All nodes must call
// each collective in the same global order (SPMD discipline); sequence
// numbers match contributions across nodes.
type Comm struct {
	ep    *Endpoint
	Shape Shape

	// HW, when non-nil, routes reductions through an in-network hardware
	// combining tree (the cost.Config.HWCombining ablation) instead of the
	// software tree ascent. Broadcasts still use the software trees — the
	// ablation isolates reduction cost only.
	HW *sim.Combiner

	hUp, hDown, hVec int

	redSeq, bcSeq, vecSeq int64
	red                   map[int64]*redState
	bc                    map[int64]*bcState
	vec                   map[int64]*vecState

	lopParent []int // cached lop-sided tree in virtual-rank space

	// Frames of the blocking Reduce and Bcast drivers, allocated on first
	// use: a node runs one collective at a time, and the frames embed a poll
	// frame, which would escape from the Go stack on every call.
	rs *ReduceStep
	bs *BcastStep
}

type redState struct {
	n   int
	has bool
	val float64
	idx int64
}

type bcState struct {
	has bool
	val float64
	idx int64
}

type vecState struct {
	words []uint64
	got   int
}

// NewCombiner constructs the shared hardware combining tree for the
// HWCombining ablation, folding contributions with the cmmd operator set.
// One combiner serves every node; wire it into each Comm's HW field.
func NewCombiner(eng *sim.Engine, cfg *cost.Config) *sim.Combiner {
	return sim.NewCombiner(eng, cfg.Procs, cfg.CombiningLatency,
		func(op uint8, v1 float64, i1 int64, v2 float64, i2 int64) (float64, int64) {
			return combine(ReduceOp(op), v1, i1, v2, i2)
		})
}

// NewComm creates the collective layer with the given tree shape. Must be
// created in the same order on all nodes (it registers AM handlers).
func NewComm(ep *Endpoint, shape Shape) *Comm {
	c := &Comm{
		ep: ep, Shape: shape,
		red: make(map[int64]*redState),
		bc:  make(map[int64]*bcState),
		vec: make(map[int64]*vecState),
	}
	c.hUp = ep.AM.Register(c.onUp)
	c.hDown = ep.AM.Register(c.onDown)
	c.hVec = ep.AM.Register(c.onVec)
	return c
}

// --- tree construction (virtual ranks; rank 0 = root) ---

// topology returns the parent virtual rank and children virtual ranks of
// vrank in the configured tree over p nodes.
func (c *Comm) topology(vrank, p int) (parent int, children []int) {
	return c.topologyFor(c.Shape, vrank, p)
}

func (c *Comm) topologyFor(shape Shape, vrank, p int) (parent int, children []int) {
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
		par := c.lopsided(p)
		for v := 1; v < p; v++ {
			if par[v] == vrank {
				children = append(children, v)
			}
		}
		return par[vrank], children
	}
	panic("cmmd: unknown tree shape")
}

// lopsided computes (and caches) the LogP greedy broadcast tree: a priority
// queue of informed nodes by next-free time; the earliest-free node informs
// the next rank. o is the per-message send overhead, L the wire latency,
// and the receive overhead delays when a child may start forwarding.
func (c *Comm) lopsided(p int) []int {
	if c.lopParent != nil && len(c.lopParent) == p {
		return c.lopParent
	}
	cfg := c.ep.Cfg
	o := cfg.AMSendCycles + cfg.NIWriteTagDest + cfg.NISendCycles
	oR := cfg.AMDispatchCycles + cfg.NIStatusCycles + cfg.NIRecvCycles
	L := cfg.NetLatency

	par := make([]int, p)
	par[0] = -1
	h := &lopHeap{{t: 0, v: 0}}
	next := 1
	for next < p {
		s := heap.Pop(h).(lopNode)
		par[next] = s.v
		heap.Push(h, lopNode{t: s.t + o, v: s.v})
		heap.Push(h, lopNode{t: s.t + o + L + oR, v: next})
		next++
	}
	c.lopParent = par
	return par
}

type lopNode struct {
	t int64
	v int
}
type lopHeap []lopNode

func (h lopHeap) Len() int { return len(h) }
func (h lopHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].v < h[j].v
}
func (h lopHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *lopHeap) Push(x any)   { *h = append(*h, x.(lopNode)) }
func (h *lopHeap) Pop() any     { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

func (c *Comm) vrank(id, root int) int     { return (id - root + c.ep.Nodes) % c.ep.Nodes }
func (c *Comm) actual(vrank, root int) int { return (vrank + root) % c.ep.Nodes }

// --- reduction ---

func (c *Comm) redState(seq int64) *redState {
	st := c.red[seq]
	if st == nil {
		st = &redState{}
		c.red[seq] = st
	}
	return st
}

func (c *Comm) onUp(pkt *ni.Packet) {
	seq := int64(pkt.Args[0])
	op := ReduceOp(pkt.Args[3])
	st := c.redState(seq)
	v := math.Float64frombits(pkt.Args[1])
	i := int64(pkt.Args[2])
	if st.has {
		st.val, st.idx = combine(op, st.val, st.idx, v, i)
	} else {
		st.val, st.idx, st.has = v, i, true
	}
	st.n++
}

// Reduce combines (val, idx) across all nodes with op, delivering the result
// at root (and returning zeros elsewhere), as Gauss's pivot selection does.
// The reduction ascends the configured tree; the paper's Gauss-MP uses the
// same lop-sided trees for reductions and broadcasts.
func (c *Comm) Reduce(root int, val float64, idx int64, op ReduceOp) (float64, int64) {
	if c.rs == nil {
		c.rs = new(ReduceStep)
	}
	for {
		if v, i, done := c.StepReduce(c.rs, root, val, idx, op); done {
			return v, i
		}
		c.ep.P.Yield()
	}
}

// --- scalar broadcast ---

func (c *Comm) onDown(pkt *ni.Packet) {
	seq := int64(pkt.Args[0])
	st := c.bc[seq]
	if st == nil {
		st = &bcState{}
		c.bc[seq] = st
	}
	st.val = math.Float64frombits(pkt.Args[1])
	st.idx = int64(pkt.Args[2])
	st.has = true
}

// Bcast distributes val from root to every node down the tree, returning it
// everywhere (the backward-substitution value broadcasts in Gauss).
func (c *Comm) Bcast(root int, val float64) float64 {
	v, _ := c.bcastPair(root, val, 0, memsim.WordBytes)
	return v
}

// BcastPair broadcasts a (value, index) pair in a single message — Gauss's
// pivot announcement carries the pivot value and the owning global row.
func (c *Comm) BcastPair(root int, val float64, idx int64) (float64, int64) {
	return c.bcastPair(root, val, idx, 2*memsim.WordBytes)
}

func (c *Comm) bcastPair(root int, val float64, idx int64, dataBytes int) (float64, int64) {
	if c.bs == nil {
		c.bs = new(BcastStep)
	}
	for {
		if v, i, done := c.stepBcastPair(c.bs, root, val, idx, dataBytes); done {
			return v, i
		}
		c.ep.P.Yield()
	}
}

// --- vector broadcast ---

func (c *Comm) onVec(pkt *ni.Packet) {
	seq := int64(pkt.Args[0])
	st := c.vec[seq]
	if st == nil {
		st = &vecState{words: make([]uint64, int(pkt.Args[2]))}
		c.vec[seq] = st
	}
	off := int(pkt.Args[1])
	copy(st.words[off:], pkt.Payload())
	st.got += pkt.NWords
}

// BcastVecF distributes elements [lo, hi) of vec from root to all nodes down
// the tree (the pivot-row broadcasts of Gauss-MP: "active messages and
// channels"). The stream is pipelined: interior nodes forward each packet
// as it arrives rather than waiting for the whole vector, so the cost of
// tree depth is latency, not repeated store-and-forward of the full row.
func (c *Comm) BcastVecF(root int, vec *memsim.FVec, lo, hi int) {
	ep := c.ep
	p := ep.P
	p.Interact()
	p.ChargeStall(stats.LibComp, ep.Cfg.CollectiveEntry)
	seq := c.vecSeq
	c.vecSeq++
	n := hi - lo

	// Bulk streams pipeline poorly through the lop-sided tree's wide root
	// fan-out; the tuned implementation (the paper's "active messages and
	// channels") streams rows over a binary tree through pre-established
	// virtual channels, whose per-use cost is far below a full CMMD send
	// setup. Flat stays flat — that is the ablation's pathological case.
	vecShape := c.Shape
	chanFast := false
	if c.Shape == LopSided {
		vecShape, chanFast = Binary, true
	}
	vr := c.vrank(ep.Self, root)
	parent, children := c.topologyFor(vecShape, vr, ep.Nodes)

	dsts := make([]int, len(children))
	for i, ch := range children {
		dsts[i] = c.actual(ch, root)
	}
	p.PushMode(stats.LibComp, stats.LibMiss, stats.CntLibMisses)
	defer p.PopMode()
	perChild := ep.Cfg.CMMDCallCycles
	if chanFast {
		perChild = ep.Cfg.CollectiveEntry // channel already set up; just arm it
	}
	for range dsts {
		p.Acct.Add(stats.CntChannelWrites, 1)
		p.ChargeStall(stats.LibComp, perChild)
	}

	// forward streams words [off, end) of vec to every child, one packet
	// interleaved across children so all subtrees progress together.
	per := elemsPerPacket(ep.Cfg, vec.ElemBytes)
	forward := func(off, end int) {
		if len(dsts) == 0 || off >= end {
			return
		}
		for a := off; a < end; a += per {
			b := a + per
			if b > end {
				b = end
			}
			ep.Mem.ReadRange(vec.Addr(lo+a), (b-a)*vec.ElemBytes)
			pkt := ni.Packet{
				Tag:       c.hVec,
				Args:      [4]uint64{uint64(seq), uint64(a), uint64(n)},
				DataBytes: (b - a) * vec.ElemBytes,
				NWords:    b - a,
			}
			for i := a; i < b; i++ {
				pkt.Words[i-a] = math.Float64bits(vec.V[lo+i])
			}
			for _, dst := range dsts {
				p.ChargeStall(stats.LibComp, ep.Cfg.CMMDPerPacket)
				pkt.Dst = dst
				ep.AM.SendPacket(&pkt)
			}
		}
	}

	if parent < 0 {
		forward(0, n)
		return
	}

	// Interior or leaf: consume the incoming stream, storing arrivals into
	// vec and forwarding complete packets immediately.
	done := 0
	for done < n {
		ep.pollUntil(func() bool {
			st := c.vec[seq]
			return st != nil && st.got > done
		})
		st := c.vec[seq]
		got := st.got
		ep.Mem.WriteRange(vec.Addr(lo+done), (got-done)*vec.ElemBytes)
		for i := done; i < got; i++ {
			vec.V[lo+i] = math.Float64frombits(st.words[i])
		}
		forward(done, got)
		done = got
	}
	delete(c.vec, seq)
}
