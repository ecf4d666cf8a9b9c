package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/stats"
)

// combWait deposits through StepCombine, yielding until the episode releases.
func combWait(b *Barrier, p *Proc, cat stats.Category, op ReduceOp, val float64, idx int64) (float64, int64) {
	for {
		if v, i, done := b.StepCombine(p, cat, op, val, idx); done {
			return v, i
		}
		p.Yield()
	}
}

// TestCombinerDeliversCombinedResult: every participant gets the combined
// (value, index), the release lands a fixed latency after the last arrival,
// and consecutive episodes recycle cleanly through the freelist.
func TestCombinerDeliversCombinedResult(t *testing.T) {
	const n, latency, episodes = 4, 150, 3
	e := NewEngine(100)
	b := NewBarrier(e, n, latency)
	clocks := make([]Time, n)
	for i := 0; i < n; i++ {
		i := i
		e.AddProc(func(p *Proc) {
			for ep := 0; ep < episodes; ep++ {
				p.Compute(int64(10 * (i + 1))) // staggered arrivals
				v, idx := combWait(b, p, stats.BarrierWait, OpSum, float64(i+1), int64(i))
				if v != 1+2+3+4 {
					t.Errorf("episode %d proc %d: combined value %g, want 10", ep, i, v)
				}
				if idx != 0 {
					t.Errorf("episode %d proc %d: combined index %d, want 0 (OpSum)", ep, i, idx)
				}
			}
			clocks[i] = p.Clock()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := b.Epochs(); got != episodes {
		t.Fatalf("epochs %d, want %d", got, episodes)
	}
	// Every episode: arrivals at +10..+40 past the common start, release at
	// last arrival + latency; all waiters resume at the same cycle.
	for i, c := range clocks {
		if c != clocks[0] {
			t.Errorf("proc %d resumed at %d, proc 0 at %d — release must be simultaneous", i, c, clocks[0])
		}
	}
	want := Time(episodes * (40 + latency))
	if clocks[0] != want {
		t.Errorf("final clock %d, want %d", clocks[0], want)
	}
}

// TestCombinerFoldsInProcessorIDOrder inverts the arrival order (the
// highest-ID processor deposits first in virtual time). Every contribution
// has magnitude 1 and OpMaxAbs keeps the earlier one on a tie, so only a
// fold in processor-ID order delivers proc 0's (+1, 0).
func TestCombinerFoldsInProcessorIDOrder(t *testing.T) {
	const n = 4
	e := NewEngine(100)
	b := NewBarrier(e, n, 100)
	bad := int64(-1)
	for i := 0; i < n; i++ {
		i := i
		e.AddProc(func(p *Proc) {
			p.Compute(int64(10 * (n - i))) // proc 3 arrives first, proc 0 last
			val := float64(1 - 2*(i%2))    // +1, -1, +1, -1
			v, idx := combWait(b, p, stats.BarrierWait, OpMaxAbs, val, int64(i))
			if v != 1 || idx != 0 {
				bad = idx
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if bad >= 0 {
		t.Errorf("fold kept index %d, want 0 (processor-ID order)", bad)
	}
}

// TestCombinerOpMismatchPanics: an episode's participants must agree on the
// kind of arrival and, when combining, on the operator; a straggler that
// disagrees is a program bug and fails loudly, naming both sides. The
// straggler retries the way the episode began so the episode (and the
// engine) still completes.
func TestCombinerOpMismatchPanics(t *testing.T) {
	type arrival func(b *Barrier, p *Proc)
	wait := func(b *Barrier, p *Proc) { b.Wait(p, stats.BarrierWait) }
	combine := func(op ReduceOp) arrival {
		return func(b *Barrier, p *Proc) { combWait(b, p, stats.BarrierWait, op, 1, 0) }
	}
	for _, tc := range []struct {
		name         string
		first, wrong arrival
		want         []string
	}{
		{"op-mismatch", combine(OpSum), combine(OpMaxAbs), []string{"op 3", "op 0"}},
		{"wait-in-combining-episode", combine(OpSum), wait, []string{"combine episode", "wait arrival"}},
		{"combine-in-plain-episode", wait, combine(OpSum), []string{"wait episode", "combine arrival"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(100) // proc 0 arrives first: dispatch is in ID order
			b := NewBarrier(e, 2, 100)
			e.AddProc(func(p *Proc) { tc.first(b, p) })
			var msg string
			e.AddProc(func(p *Proc) {
				func() {
					defer func() { msg = fmt.Sprint(recover()) }()
					tc.wrong(b, p)
					t.Error("mismatched arrival did not panic")
				}()
				tc.first(b, p)
			})
			if err := e.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, w := range tc.want {
				if !strings.Contains(msg, w) {
					t.Errorf("panic message %q should name %q", msg, w)
				}
			}
		})
	}
}
