package cmmd

import (
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
	ep   *Endpoint
	topo *Topology // the machine's trees, shared by every node, read-only

	// HW, when non-nil, routes reductions through an in-network hardware
	// combining tree (the cost.Config.HWCombining ablation) instead of the
	// software tree ascent. Broadcasts still use the software trees — the
	// ablation isolates reduction cost only.
	HW *sim.Combiner

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

// NewCombiner constructs the shared hardware combining tree for the
// HWCombining ablation, folding contributions with the cmmd operator set.
// One combiner serves every node; wire it into each Comm's HW field.
func NewCombiner(eng *sim.Engine, cfg *cost.Config) *sim.Combiner {
	return sim.NewCombiner(eng, cfg.Procs, cfg.CombiningLatency,
		func(op uint8, v1 float64, i1 int64, v2 float64, i2 int64) (float64, int64) {
			return combine(ReduceOp(op), v1, i1, v2, i2)
		})
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

	// The stream runs over the machine's vector tree: binary when the shape is
	// lop-sided (see vecShape), and then through pre-established virtual
	// channels, whose per-use cost is far below a full CMMD send setup.
	vr := c.vrank(ep.Self, root)
	parent, children := c.topo.vec.parent[vr], c.topo.vec.children(vr)

	p.PushMode(stats.LibComp, stats.LibMiss, stats.CntLibMisses)
	defer p.PopMode()
	perChild := ep.Cfg.CMMDCallCycles
	if c.topo.Shape == LopSided {
		perChild = ep.Cfg.CollectiveEntry // channel already set up; just arm it
	}
	for range children {
		p.Acct.Add(stats.CntChannelWrites, 1)
		p.ChargeStall(stats.LibComp, perChild)
	}

	// forward streams words [off, end) of vec to every child, one packet
	// interleaved across children so all subtrees progress together.
	per := elemsPerPacket(ep.Cfg, vec.ElemBytes)
	forward := func(off, end int) {
		if len(children) == 0 || off >= end {
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
			for _, ch := range children {
				p.ChargeStall(stats.LibComp, ep.Cfg.CMMDPerPacket)
				pkt.Dst = c.actual(ch, root)
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
	if st := c.vec[seq]; st != nil {
		delete(c.vec, seq)
		st.got = 0
		c.vecFree = append(c.vecFree, st)
	}
}
