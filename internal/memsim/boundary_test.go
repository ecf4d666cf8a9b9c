package memsim

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
)

// staleEnv runs one coroutine per body, each with its own Mem, over an
// 8-element vector in private space: there is no coherence, so a refetch
// happens only where a body flushes the block first.
func staleEnv(t *testing.T, bodies ...func(p *sim.Proc, m *Mem, sv *StaleVec)) {
	t.Helper()
	cfg := cost.Default(len(bodies))
	eng := sim.NewEngine(cfg.NetLatency)
	g := NewFVec(NewAddrSpace(1, 32).AllocPrivate(0, 64), 8)
	sv := NewStaleVec(eng, &g, len(bodies))
	for i, body := range bodies {
		i, body := i, body
		eng.AddProc(func(p *sim.Proc) { body(p, NewMem(p, &cfg, uint64(i+1)), sv) })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// refetch drops element i's block and reads the element again.
func refetch(p *sim.Proc, m *Mem, sv *StaleVec, i int) float64 {
	for !m.StepFlushBlock(sv.G.Addr(i)) {
		p.Yield()
	}
	for {
		if v, done := sv.StepGet(m, i); done {
			return v
		}
		p.Yield()
	}
}

func stepSet(p *sim.Proc, m *Mem, sv *StaleVec, i int, x float64) {
	for !sv.StepSet(m, i, x) {
		p.Yield()
	}
}

// toQuantum advances p's clock to the start of quantum q.
func toQuantum(p *sim.Proc, q int64) {
	p.Compute(q*p.Engine().Quantum - p.Clock())
	p.Interact()
}

// TestBoundaryImageReachesReaderAtNextBoundary: a value processor A writes
// in quantum q reaches B's refetch at the q+1 boundary and not before —
// though B runs after A inside quantum q — while A sees its own write at
// once.
func TestBoundaryImageReachesReaderAtNextBoundary(t *testing.T) {
	const wq, last = 3, 6
	var seen [last + 1]float64
	staleEnv(t,
		func(p *sim.Proc, m *Mem, sv *StaleVec) {
			toQuantum(p, wq)
			stepSet(p, m, sv, 0, 7)
			if v := refetch(p, m, sv, 0); v != 7 {
				t.Errorf("writer's own refetch = %v, want 7", v)
			}
		},
		func(p *sim.Proc, m *Mem, sv *StaleVec) {
			for q := int64(0); q <= last; q++ {
				toQuantum(p, q)
				seen[q] = refetch(p, m, sv, 0)
			}
		})
	for q, v := range seen {
		want := 0.0
		if q > wq {
			want = 7
		}
		if v != want {
			t.Errorf("reader's refetch in quantum %d = %v, want %v (written in quantum %d)", q, v, want, wq)
		}
	}
}

// TestBoundaryVecPublishesOnlyWritten: a quantum with k written elements
// publishes k, however often each was written, and a quantum with no writes
// publishes none; every publish leaves Image equal to the backing.
func TestBoundaryVecPublishesOnlyWritten(t *testing.T) {
	cfg := cost.Default(1)
	eng := sim.NewEngine(cfg.NetLatency)
	g := NewFVec(NewAddrSpace(1, 32).AllocPrivate(0, 64), 8)
	b := NewBoundaryVec(eng, &g)
	published := map[int64]int{}
	publishHook = func(pb *BoundaryVec, n int) {
		if pb != b {
			return
		}
		published[eng.Now()/eng.Quantum] = n
		for i, v := range g.V {
			if b.Image[i] != v {
				t.Errorf("quantum %d: Image[%d] = %v, backing %v", eng.Now()/eng.Quantum, i, b.Image[i], v)
			}
		}
	}
	defer func() { publishHook = nil }()
	eng.AddProc(func(p *sim.Proc) {
		toQuantum(p, 1)
		b.Set(0, 2, 1)
		b.Set(0, 2, 2)
		b.SetRange(0, 5, []float64{3, 4})
		toQuantum(p, 3)
		b.Set(0, 7, 5)
		toQuantum(p, 5)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[int64]int{2: 3, 4: 1}
	for q := int64(0); q <= 5; q++ {
		if n, ok := published[q]; !ok || n != want[q] {
			t.Errorf("boundary of quantum %d published %d elements (seen %v), want %d", q, n, ok, want[q])
		}
	}
}

// TestStaleVecLastWriterOwnsElement pins the rule for two writers of one
// element in one quantum: the last of them is the element's writer until
// the boundary, so its refetch overlays the live value, and the earlier
// writer's refetch sees the boundary image. After the boundary both see the
// last value.
func TestStaleVecLastWriterOwnsElement(t *testing.T) {
	staleEnv(t, func(p *sim.Proc, m *Mem, sv *StaleVec) {
		toQuantum(p, 1)
		stepSet(p, m, sv, 0, 1)
		sv.Set(1, 0, 2) // a second writer, after this processor
		if v := refetch(p, m, sv, 0); v != 0 {
			t.Errorf("earlier writer's refetch = %v, want the boundary image's 0", v)
		}
		sv.Set(1, 1, 3)
		stepSet(p, m, sv, 1, 4) // this processor writes last
		if v := refetch(p, m, sv, 1); v != 4 {
			t.Errorf("last writer's refetch = %v, want its own 4", v)
		}
		if p.Clock() >= p.Engine().QuantumEnd() {
			t.Fatalf("the accesses ran past quantum 1 (clock %d)", p.Clock())
		}
		toQuantum(p, 2)
		if a, b := refetch(p, m, sv, 0), refetch(p, m, sv, 1); a != 2 || b != 4 {
			t.Errorf("after the boundary: %v, %v, want the last writes 2, 4", a, b)
		}
	}, func(*sim.Proc, *Mem, *StaleVec) {})
}
