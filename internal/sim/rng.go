package sim

// RNG is a small deterministic xorshift64* generator. Every source of
// randomness in the simulator (cache victim selection, workload generation)
// draws from a seeded RNG so that identical configurations produce
// bit-identical simulations.
type RNG struct{ s uint64 }

// NewRNG returns a generator seeded with seed (0 is remapped to a fixed
// nonzero constant, since xorshift requires nonzero state).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{s: seed}
}

// State returns the generator's current position: the full internal state,
// from which the remaining sequence is completely determined. Snapshots
// record it so a resumed run can prove its RNG streams sit at exactly the
// same position as the checkpointed run — silent RNG drift would break
// replay equivalence undetectably otherwise.
func (r *RNG) State() uint64 { return r.s }

// Restore rewinds (or advances) the generator to a position previously
// captured with State. Restoring a zero state panics: no reachable RNG
// state is zero (xorshift preserves nonzero-ness and NewRNG remaps seed 0),
// so a zero can only mean a corrupted or uninitialized snapshot.
func (r *RNG) Restore(state uint64) {
	if state == 0 {
		panic("sim: RNG.Restore of zero state (corrupt snapshot?)")
	}
	r.s = state
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := r.s
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	r.s = s
	return s * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}
