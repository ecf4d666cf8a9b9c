package cmmd_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/cmmd"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
)

// vecCase is one vector broadcast: the tree shape, the machine size, the
// root, the element size, and whether the network is lossy (the stream then
// runs through the reliable transport).
type vecCase struct {
	shape             cmmd.Shape
	procs, root, elem int
	lossy             bool
}

// vecTotals is one broadcast's accounting: the latest node's final clock and
// the LibComp and NetAccess cycles, channel writes and messages summed over
// the nodes.
type vecTotals struct {
	elapsed, libComp, netAccess, chanWrites, msgs int64
}

// The broadcast covers elements [vecLo, vecLo+n) of a vector with two more
// elements past the end, which must stay untouched. 37 elements end on a
// short packet at both element sizes.
const (
	vecLo      = 5
	vecN       = 37
	vecLossyN  = 400 // enough packets for the fault plan to drop some
	vecPadding = 2
)

func vecElem(i, root int) float64 { return float64(i)*1.25 - 7 + float64(root)/3 }

// runStepBcastVec runs one StepBcastVecF on every node of a fresh machine,
// each node a step program, and returns the machine and every node's vector.
func runStepBcastVec(t *testing.T, c vecCase, n int) (*machine.MPMachine, [][]float64) {
	t.Helper()
	cfg := cost.Default(c.procs)
	if c.lossy {
		cfg.Faults = &cost.FaultsConfig{Seed: 7, DropRate: 0.05, DupRate: 0.02, DelayRate: 0.05}
	}
	got := make([][]float64, c.procs)
	m := machine.NewMPStep(cfg, c.shape, func(nd *machine.MPNode) func(*sim.Proc) sim.StepStatus {
		v := nd.AllocFSized(vecLo+n+vecPadding, c.elem)
		if nd.ID == c.root {
			for i := vecLo; i < vecLo+n; i++ {
				v.V[i] = vecElem(i, c.root)
			}
		}
		var vs cmmd.VecStep
		return func(*sim.Proc) sim.StepStatus {
			if !nd.Comm.StepBcastVecF(&vs, c.root, &v, vecLo, vecLo+n) {
				return sim.StepYield
			}
			got[nd.ID] = v.V
			return sim.StepDone
		}
	})
	if res := m.Run(); res.Err != nil {
		t.Fatalf("%+v: %v", c, res.Err)
	}
	return m, got
}

// TestBcastVecAllShapes runs the vector broadcast as step programs over every
// shape, machine sizes with a lone node, a lone child, an odd count and a
// partial binary level, three roots, both element sizes and an offset range,
// plus one lossy run. Every node must receive the range bit-exact and nothing
// outside it. Each node's final clock, LibComp and NetAccess cycles, channel
// writes and messages must match what the blocking composite this replaced
// charged: the totals per case below, and an FNV-1a hash over the per-node
// values of every case in order (with each node's library-miss cycles and
// count, which the call's accounting mode decides), were recorded with it. A
// broadcast is a rotation of the tree, so the totals do not depend on the
// root.
func TestBcastVecAllShapes(t *testing.T) {
	want := map[string]vecTotals{
		"flat/1/4":       {80, 80, 0, 0, 0},
		"flat/1/8":       {80, 80, 0, 0, 0},
		"flat/2/4":       {1370, 1759, 405, 1, 10},
		"flat/2/8":       {2018, 2521, 765, 1, 19},
		"flat/3/4":       {2141, 4838, 890, 2, 20},
		"flat/3/8":       {3341, 7366, 1710, 2, 38},
		"flat/8/4":       {6491, 46063, 3150, 7, 70},
		"flat/8/8":       {10481, 74476, 5985, 7, 133},
		"flat/33/4":      {28241, 881488, 14400, 32, 320},
		"flat/33/8":      {46181, 1457776, 27360, 32, 608},
		"binary/1/4":     {80, 80, 0, 0, 0},
		"binary/1/8":     {80, 80, 0, 0, 0},
		"binary/2/4":     {1370, 1759, 405, 1, 10},
		"binary/2/8":     {2018, 2521, 765, 1, 19},
		"binary/3/4":     {2141, 4838, 890, 2, 20},
		"binary/3/8":     {3341, 7366, 1710, 2, 38},
		"binary/8/4":     {3190, 18812, 3050, 7, 70},
		"binary/8/8":     {4954, 28933, 5805, 7, 133},
		"binary/33/4":    {3922, 97115, 13725, 32, 320},
		"binary/33/8":    {5623, 138467, 26010, 32, 608},
		"lop-sided/1/4":  {80, 80, 0, 0, 0},
		"lop-sided/1/8":  {80, 80, 0, 0, 0},
		"lop-sided/2/4":  {1200, 1419, 405, 1, 10},
		"lop-sided/2/8":  {1848, 2181, 765, 1, 19},
		"lop-sided/3/4":  {1801, 3818, 890, 2, 20},
		"lop-sided/3/8":  {3001, 6346, 1710, 2, 38},
		"lop-sided/8/4":  {2850, 16092, 3050, 7, 70},
		"lop-sided/8/8":  {4614, 26213, 5805, 7, 133},
		"lop-sided/33/4": {3582, 85895, 13725, 32, 320},
		"lop-sided/33/8": {5283, 127247, 26010, 32, 608},
		"lossy":          {67166, 399639, 61280, 7, 1490}, // lop-sided, P=8, root 1, 4-byte
	}
	const wantHash uint64 = 0xe08eedf6e38ba2e1

	var cases []vecCase
	for _, shape := range []cmmd.Shape{cmmd.Flat, cmmd.Binary, cmmd.LopSided} {
		for _, procs := range []int{1, 2, 3, 8, 33} {
			for _, root := range []int{0, 1, procs - 1}[:min(procs, 3)] {
				for _, elem := range []int{4, 8} {
					cases = append(cases, vecCase{shape, procs, root, elem, false})
				}
			}
		}
	}
	cases = append(cases, vecCase{cmmd.LopSided, 8, 1, 4, true})

	h := fnv.New64a()
	for _, c := range cases {
		key, n := fmt.Sprintf("%v/%d/%d", c.shape, c.procs, c.elem), vecN
		if c.lossy {
			key, n = "lossy", vecLossyN
		}
		m, got := runStepBcastVec(t, c, n)
		for id, v := range got {
			for i := range v {
				w := 0.0
				if i >= vecLo && i < vecLo+n {
					w = vecElem(i, c.root)
				}
				if math.Float64bits(v[i]) != math.Float64bits(w) {
					t.Fatalf("%+v: node %d element %d = %v, want %v", c, id, i, v[i], w)
				}
			}
		}
		if c.lossy && m.Net.Dropped == 0 {
			t.Errorf("%+v: the fault plan dropped nothing; the transport went unexercised", c)
		}

		var tot vecTotals
		for _, nd := range m.Nodes {
			a := nd.P.Acct
			node := vecTotals{int64(nd.P.Clock()),
				a.Cycles(stats.PhaseDefault, stats.LibComp), a.Cycles(stats.PhaseDefault, stats.NetAccess),
				a.Counts(stats.PhaseDefault, stats.CntChannelWrites), a.Counts(stats.PhaseDefault, stats.CntMessages)}
			for _, x := range []int64{node.elapsed, node.libComp, node.netAccess, node.chanWrites, node.msgs,
				a.Cycles(stats.PhaseDefault, stats.LibMiss), a.Counts(stats.PhaseDefault, stats.CntLibMisses)} {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(x))
				h.Write(b[:])
			}
			tot.elapsed = max(tot.elapsed, node.elapsed)
			tot.libComp += node.libComp
			tot.netAccess += node.netAccess
			tot.chanWrites += node.chanWrites
			tot.msgs += node.msgs
		}
		if tot != want[key] {
			t.Errorf("%+v: totals %+v, want %+v", c, tot, want[key])
		}
	}
	if got := h.Sum64(); got != wantHash {
		t.Errorf("per-node accounting hash %#x, want %#x", got, wantHash)
	}
}
