package cmmd

import (
	"fmt"
	"math"

	"repro/internal/ni"
	"repro/internal/sim"
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

// ReduceOp is the reduction operator set shared with parmacs and the
// combining barrier (sim.ReduceOp).
type ReduceOp = sim.ReduceOp

// The reduction operators.
const (
	OpSum    = sim.OpSum
	OpMaxAbs = sim.OpMaxAbs
)

// Comm provides software collectives over an endpoint. All nodes must call
// each collective in the same global order (SPMD discipline); sequence
// numbers match contributions across nodes.
type Comm struct {
	ep   *Endpoint
	topo *Topology // the machine's trees, shared by every node, read-only

	hUp, hDown, hVec int

	// Per-sequence-number fold state, created by whichever comes first — the
	// node's own call or a peer's message for that sequence. These stay maps:
	// a leaf may run arbitrarily many sequence numbers ahead of its parent (a
	// non-root Reduce returns as soon as it has sent), so a fixed ring indexed
	// by seq % K is not safe. A state retired by its collective goes on the
	// free list and serves a later sequence number.
	redSeq, bcSeq, vecSeq int64
	red                   map[int64]*redState
	bc                    map[int64]*bcState
	vec                   map[int64]*vecState
	redFree               []*redState
	bcFree                []*bcState
	vecFree               []*vecState

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

// vecState collects one incoming vector stream. Packets of a stream arrive
// in order, so words[:got] is always written; a recycled buffer's stale
// words beyond got are never read.
type vecState struct {
	words []uint64
	got   int
}

// take pops a retired state off a free list, or allocates the first one.
func take[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	st := (*free)[n-1]
	*free = (*free)[:n-1]
	return st
}

// NewComm creates one node's collective layer over the machine's trees. Must
// be created in the same order on all nodes (it registers AM handlers).
func NewComm(ep *Endpoint, topo *Topology) *Comm {
	c := &Comm{
		ep: ep, topo: topo,
		red: make(map[int64]*redState),
		bc:  make(map[int64]*bcState),
		vec: make(map[int64]*vecState),
	}
	c.hUp = ep.AM.Register(c.onUp)
	c.hDown = ep.AM.Register(c.onDown)
	c.hVec = ep.AM.Register(c.onVec)
	return c
}

// vrank and actual rotate a collective's root onto virtual rank 0 of the
// machine's Topology and back.
func (c *Comm) vrank(id, root int) int     { return (id - root + c.ep.Nodes) % c.ep.Nodes }
func (c *Comm) actual(vrank, root int) int { return (vrank + root) % c.ep.Nodes }

// --- reduction ---

func (c *Comm) redState(seq int64) *redState {
	st := c.red[seq]
	if st == nil {
		st = take(&c.redFree)
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
		st.val, st.idx = op.Combine(st.val, st.idx, v, i)
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
		st = take(&c.bcFree)
		c.bc[seq] = st
	}
	st.val = math.Float64frombits(pkt.Args[1])
	st.idx = int64(pkt.Args[2])
	st.has = true
}

// Bcast distributes val from root to every node down the tree, returning it
// everywhere (the backward-substitution value broadcasts in Gauss).
func (c *Comm) Bcast(root int, val float64) float64 {
	if c.bs == nil {
		c.bs = new(BcastStep)
	}
	for {
		if v, done := c.StepBcast(c.bs, root, val); done {
			return v
		}
		c.ep.P.Yield()
	}
}

// --- vector broadcast ---

func (c *Comm) onVec(pkt *ni.Packet) {
	seq := int64(pkt.Args[0])
	st := c.vec[seq]
	if st == nil {
		st = take(&c.vecFree)
		if n := int(pkt.Args[2]); n <= cap(st.words) {
			st.words = st.words[:n]
		} else {
			st.words = make([]uint64, n)
		}
		c.vec[seq] = st
	}
	off := int(pkt.Args[1])
	copy(st.words[off:], pkt.Payload())
	st.got += pkt.NWords
}
