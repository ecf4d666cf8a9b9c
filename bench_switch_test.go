// Microbenchmarks of the engine's processor-dispatch cost: the host
// nanoseconds spent per simulated yield/resume round trip. One benchmark
// iteration is one proc switch (a processor yielding at a quantum boundary
// and being resumed in the next quantum), so ns/op reads directly as host ns
// per switch.
//
// Two dispatch disciplines exist and each has a row. A coroutine processor
// is an iter.Pull coroutine: the dispatcher's resume and the body's yield
// are runtime coroutine switches that hand the host thread over directly,
// so a switch costs two stack switches plus the engine's bookkeeping and
// the Go scheduler takes no part. A step processor is a function call.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// benchEngineYields measures the full engine dispatch path for coroutine
// processors: procs processors each compute exactly one quantum and then
// synchronize, so every dispatch costs one coroutine switch in and one
// back out plus the engine's per-proc share of batch collection and
// settling.
func benchEngineYields(b *testing.B, procs int) {
	b.ReportAllocs()
	rounds := b.N/procs + 1
	e := sim.NewEngine(100)
	e.Workers = 1
	for i := 0; i < procs; i++ {
		e.AddProc(func(p *sim.Proc) {
			for k := 0; k < rounds; k++ {
				p.Compute(100)
				p.Interact()
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchStepYields is benchEngineYields for step processors: the same
// workload dispatched as direct continuation calls — no goroutine, no
// stack switch, just a function call per switch.
func benchStepYields(b *testing.B, procs int) {
	b.ReportAllocs()
	rounds := b.N/procs + 1
	e := sim.NewEngine(100)
	e.Workers = 1
	for i := 0; i < procs; i++ {
		k := 0
		e.AddStepProc(func(p *sim.Proc) sim.StepStatus {
			if k >= rounds {
				return sim.StepDone
			}
			k++
			p.Compute(100)
			return sim.StepYield
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMicroProcSwitch measures one simulated processor switch at
// several machine sizes, for each dispatch discipline: the coroutine path
// and the direct-call step path.
func BenchmarkMicroProcSwitch(b *testing.B) {
	for _, procs := range []int{64, 1024} {
		b.Run(fmt.Sprintf("coroutine-%04d", procs), func(b *testing.B) {
			benchEngineYields(b, procs)
		})
		b.Run(fmt.Sprintf("step-%04d", procs), func(b *testing.B) {
			benchStepYields(b, procs)
		})
	}
}
