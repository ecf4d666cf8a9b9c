// BenchmarkStepApp measures whole-app host cost of a step program at the
// scaling-study machine sizes: one benchmark op is one complete
// serial-dispatch run of EM3D-MP (the step-port flagship) at P=256 or
// P=1024, every node an engine-called state machine with no goroutine.
// Budgets in scripts/bench_budgets.json pin the allocs/op of both rows.
package repro_test

import (
	"fmt"
	"testing"
)

func BenchmarkStepApp(b *testing.B) {
	for _, procs := range []int{256, 1024} {
		spec := scalingSpec("em3d", "mp", procs)
		b.Run(fmt.Sprintf("step-%04d", procs), func(b *testing.B) {
			benchScalingRun(b, spec)
		})
	}
}
