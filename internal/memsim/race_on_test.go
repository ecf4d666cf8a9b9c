//go:build race

package memsim

// raceEnabled reports whether this test binary was built with -race, whose
// runtime maps memory of its own while finalizers run.
const raceEnabled = true
