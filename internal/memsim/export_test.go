package memsim

import (
	"math"
	"testing"
)

// CheckBoundaryImages holds every BoundaryVec to its contract until the test
// ends: after each publish, Image equals the live backing bit for bit, which
// fails when some write reached the backing without going through Set or
// SetRange. It reports the first difference only, and returns a count of the
// publishes checked so far.
func CheckBoundaryImages(t testing.TB) (checked func() int) {
	n, failed := 0, false
	publishHook = func(b *BoundaryVec, _ int) {
		n++
		for i, v := range b.G.V {
			if !failed && math.Float64bits(v) != math.Float64bits(b.Image[i]) {
				failed = true
				t.Errorf("publish %d: Image[%d] = %v, backing %v: a write bypassed Set", n, i, b.Image[i], v)
				return
			}
		}
	}
	t.Cleanup(func() { publishHook = nil })
	return func() int { return n }
}
