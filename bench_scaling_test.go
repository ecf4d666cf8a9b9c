// BenchmarkScalingP exercises whole app/machine pairs at the scaling-study
// processor counts (P = 64, 256, 1024) with per-processor-scaled working
// sets, so one benchmark op is one complete simulated run at that machine
// size. Alongside the table-suite benchmarks (fixed P=32, paper workloads)
// this is the regression canary for the large-P path: the batched
// dispatcher, the compacted per-proc state, and the O(P) structures in the
// network, directory, and collectives all sit on its critical path, and the
// bench-gate budgets pin its allocation behavior so a per-proc or per-event
// allocation regression at P=1024 fails CI loudly.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/runner"
)

// scalingSpec builds the per-processor-scaled run for one scaling pair: one
// message-passing and one shared-memory representative whose total work is
// linear in the machine size (em3d's graph is NodesPer per proc; lcp gets
// two matrix rows per proc), so growing P grows the machine, not the
// per-proc work. mse and gauss are excluded deliberately — their total work
// is quadratic/cubic in the problem size, so a per-proc-scaled run at
// P=1024 would measure the application, not the simulator.
func scalingSpec(app, mach string, procs int) runner.Spec {
	switch app {
	case "em3d":
		// NodesPer must be large enough that every node has at least one
		// remote in-edge (an empty receive channel is an app-level error).
		return runner.Spec{App: app, Machine: mach, Procs: procs, Size: 8, Iters: 2}
	case "lcp":
		return runner.Spec{App: app, Machine: mach, Procs: procs, Size: 2 * procs, Iters: 2}
	}
	panic("unknown scaling app " + app)
}

func benchScalingRun(b *testing.B, spec runner.Spec) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := runner.Run(spec, runner.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if out.Res.Err != nil {
			b.Fatal(out.Res.Err)
		}
	}
}

func BenchmarkScalingP(b *testing.B) {
	for _, procs := range []int{64, 256, 1024} {
		for _, pair := range []struct{ app, mach string }{
			{"em3d", "mp"},
			{"lcp", "sm"},
		} {
			spec := scalingSpec(pair.app, pair.mach, procs)
			b.Run(fmt.Sprintf("%s-%s-%04d", pair.app, pair.mach, procs), func(b *testing.B) {
				benchScalingRun(b, spec)
			})
		}
	}
}
