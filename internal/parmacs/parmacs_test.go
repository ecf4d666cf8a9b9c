package parmacs_test

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/parmacs"
	"repro/internal/stats"
)

func TestMCSLockMutualExclusion(t *testing.T) {
	cfg := cost.Default(8)
	const perProc = 25
	var lock *parmacs.Lock
	var counter memsim.IVec
	inside := 0
	maxInside := 0
	m := machine.NewSM(cfg, parmacs.RoundRobin, func(n *machine.SMNode) {
		if n.ID == 0 {
			lock = parmacs.NewLock(n.RT)
			counter = n.RT.GMallocI(0, 1)
			n.RT.Create(n.P)
		} else {
			n.RT.WaitCreate(n.P)
		}
		n.Barrier()
		for k := 0; k < perProc; k++ {
			lock.Acquire(n.Mem)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			// Read-modify-write under the lock, with some work inside the
			// critical section so overlap would be caught.
			v := counter.Get(n.Mem, 0)
			n.Compute(50)
			counter.Set(n.Mem, 0, v+1)
			inside--
			lock.Release(n.Mem)
			n.Compute(int64(13 * (n.ID + 1)))
		}
		n.Barrier()
	})
	m.Run()
	if maxInside != 1 {
		t.Errorf("critical section held by %d processors at once", maxInside)
	}
	if got := counter.V[0]; got != int64(8*perProc) {
		t.Errorf("counter = %d, want %d (lost updates)", got, 8*perProc)
	}
	// Lock time must be charged to the Locks category on contended procs.
	var lockCycles int64
	for _, nd := range m.Nodes {
		lockCycles += nd.P.Acct.Cycles(stats.PhaseDefault, stats.LockWait)
	}
	if lockCycles == 0 {
		t.Error("no cycles charged to Locks")
	}
}

func TestMCSLockUncontendedIsCheap(t *testing.T) {
	cfg := cost.Default(2)
	var lock *parmacs.Lock
	m := machine.NewSM(cfg, parmacs.RoundRobin, func(n *machine.SMNode) {
		if n.ID == 0 {
			lock = parmacs.NewLock(n.RT)
			n.RT.Create(n.P)
		} else {
			n.RT.WaitCreate(n.P)
		}
		n.Barrier()
		if n.ID == 1 {
			for k := 0; k < 5; k++ {
				lock.Acquire(n.Mem)
				lock.Release(n.Mem)
			}
		}
		n.Barrier()
	})
	m.Run()
	// After the first acquire the tail block stays cached Modified at node
	// 1: later acquire/release pairs should cost only the instruction
	// overhead, far below a protocol round trip each.
	c := m.Nodes[1].P.Acct.Cycles(stats.PhaseDefault, stats.LockWait)
	if c > 5*600 {
		t.Errorf("5 uncontended acquire/release = %d cycles, too expensive", c)
	}
}

func TestReductionSumAtRoot(t *testing.T) {
	cfg := cost.Default(13)
	var red *parmacs.Reduction
	var got float64
	m := machine.NewSM(cfg, parmacs.RoundRobin, func(n *machine.SMNode) {
		if n.ID == 0 {
			red = parmacs.NewReduction(n.RT)
			n.RT.Create(n.P)
		} else {
			n.RT.WaitCreate(n.P)
		}
		n.Barrier()
		v, _ := red.Reduce(n.Mem, float64(n.ID+1), 0, parmacs.OpSum, parmacs.SyncCats)
		if n.ID == 0 {
			got = v
		}
		n.Barrier()
	})
	m.Run()
	want := 0.0
	for i := 1; i <= 13; i++ {
		want += float64(i)
	}
	if got != want {
		t.Errorf("reduce sum = %v, want %v", got, want)
	}
	// Sync categories were charged, not application categories.
	var sync int64
	for _, nd := range m.Nodes {
		sync += nd.P.Acct.Cycles(stats.PhaseDefault, stats.SyncComp) +
			nd.P.Acct.Cycles(stats.PhaseDefault, stats.SyncMiss)
	}
	if sync == 0 {
		t.Error("reduction charged nothing to sync categories")
	}
}

func TestReductionRepeatedRoundsMaxAbs(t *testing.T) {
	cfg := cost.Default(6)
	var red *parmacs.Reduction
	got := make([]float64, 0, 3)
	idxs := make([]int64, 0, 3)
	m := machine.NewSM(cfg, parmacs.RoundRobin, func(n *machine.SMNode) {
		if n.ID == 0 {
			red = parmacs.NewReduction(n.RT)
			n.RT.Create(n.P)
		} else {
			n.RT.WaitCreate(n.P)
		}
		n.Barrier()
		for round := 0; round < 3; round++ {
			contrib := float64((n.ID + round) % 6)
			if n.ID == round {
				contrib = -50 - float64(round)
			}
			v, i := red.Reduce(n.Mem, contrib, int64(n.ID), parmacs.OpMaxAbs, parmacs.GaussCats)
			if n.ID == 0 {
				got = append(got, v)
				idxs = append(idxs, i)
			}
			n.Barrier()
		}
	})
	m.Run()
	for round := 0; round < 3; round++ {
		if got[round] != -50-float64(round) || idxs[round] != int64(round) {
			t.Errorf("round %d: (%v, %d), want (%v, %d)",
				round, got[round], idxs[round], -50-float64(round), round)
		}
	}
}

func TestStartupWaitCharged(t *testing.T) {
	cfg := cost.Default(4)
	const initWork = 90_000
	m := machine.NewSM(cfg, parmacs.RoundRobin, func(n *machine.SMNode) {
		if n.ID == 0 {
			n.Compute(initWork) // serial initialization
			n.RT.Create(n.P)
		} else {
			n.RT.WaitCreate(n.P)
		}
		n.Barrier()
	})
	m.Run()
	for i := 1; i < 4; i++ {
		w := m.Nodes[i].P.Acct.Cycles(stats.PhaseDefault, stats.StartupWait)
		if w != initWork {
			t.Errorf("node %d start-up wait = %d, want %d", i, w, initWork)
		}
	}
	if w := m.Nodes[0].P.Acct.Cycles(stats.PhaseDefault, stats.StartupWait); w != 0 {
		t.Errorf("node 0 charged start-up wait %d", w)
	}
}

func TestGMallocPolicies(t *testing.T) {
	cfg := cost.Default(4)
	pageShift := uint(12)
	t.Run("round-robin stripes pages", func(t *testing.T) {
		var homes []int
		machine.RunSM(cfg, parmacs.RoundRobin, func(n *machine.SMNode) {
			if n.ID == 0 {
				v := n.RT.GMallocF(n.ID, 4*4096/8) // four pages
				for pg := 0; pg < 4; pg++ {
					homes = append(homes, memsim.HomeOf(v.Addr(pg*512), 4, pageShift))
				}
			}
			n.Barrier()
		})
		seen := map[int]bool{}
		for _, h := range homes {
			seen[h] = true
		}
		if len(seen) != 4 {
			t.Errorf("striped pages landed on %d homes (%v), want 4", len(seen), homes)
		}
	})
	t.Run("local homes at caller", func(t *testing.T) {
		homes := make([]int, 4)
		machine.RunSM(cfg, parmacs.Local, func(n *machine.SMNode) {
			v := n.RT.GMallocF(n.ID, 64)
			homes[n.ID] = memsim.HomeOf(v.Addr(0), 4, pageShift)
			n.Barrier()
		})
		for i, h := range homes {
			if h != i {
				t.Errorf("node %d allocation homed at %d", i, h)
			}
		}
	})
}

func TestSpinWakesOnInvalidation(t *testing.T) {
	cfg := cost.Default(2)
	var flag memsim.IVec
	var waited int64
	m := machine.NewSM(cfg, parmacs.RoundRobin, func(n *machine.SMNode) {
		if n.ID == 0 {
			flag = n.RT.GMallocI(0, 1)
			n.RT.Create(n.P)
		} else {
			n.RT.WaitCreate(n.P)
		}
		n.Barrier()
		if n.ID == 0 {
			n.Compute(30_000)
			flag.Set(n.Mem, 0, 1)
		} else {
			var ss coherence.SpinStep
			isSet := func(v int64) bool { return v == 1 }
			for {
				if _, done := n.Pr.StepSpinI(&ss, n.Mem, &flag, 0, stats.LockWait, isSet); done {
					break
				}
				n.P.Yield()
			}
			waited = n.P.Clock()
		}
		n.Barrier()
	})
	m.Run()
	// The spinner must wake shortly after the 30k-cycle write, not poll
	// blindly nor hang.
	if waited < 30_000 || waited > 32_000 {
		t.Errorf("spinner resumed at %d, want shortly after 30000", waited)
	}
}
