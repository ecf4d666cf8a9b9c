// BenchmarkScalingP exercises whole app/machine pairs at the scaling-study
// processor counts (P = 64, 256, 1024) with per-processor-scaled working
// sets, so one benchmark op is one complete simulated run at that machine
// size. Alongside the table-suite benchmarks (fixed P=32, paper workloads)
// this is the regression canary for the large-P path. All four scaling pairs
// run, because each puts different O(P) structures on the critical path:
// em3d-mp the batched dispatcher, the network and the channel machines;
// lcp-mp the software-tree collectives (a reduction and a broadcast per
// sweep); em3d-sm the directory and one MCS lock per node; lcp-sm the
// directory and the parmacs reduction tree. The bench-gate budgets pin the
// allocation behavior of every row, so a per-proc or per-event allocation
// regression at P=1024 fails CI loudly; TestHostAllocsLinearInP
// (alloc_budget_test.go) holds the same runs to mallocs linear in P.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/runner"
)

// scalingSpec builds the per-processor-scaled run for one scaling pair: the
// two applications, on either machine, whose total work is linear in the
// machine size (em3d's graph is NodesPer per proc; lcp gets
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

// scalingPairs are the app/machine pairs scalingSpec can size.
var scalingPairs = []struct{ app, mach string }{
	{"em3d", "mp"},
	{"em3d", "sm"},
	{"lcp", "mp"},
	{"lcp", "sm"},
}

func BenchmarkScalingP(b *testing.B) {
	for _, procs := range []int{64, 256, 1024} {
		for _, pair := range scalingPairs {
			spec := scalingSpec(pair.app, pair.mach, procs)
			b.Run(fmt.Sprintf("%s-%s-%04d", pair.app, pair.mach, procs), func(b *testing.B) {
				benchScalingRun(b, spec)
			})
		}
	}
}
