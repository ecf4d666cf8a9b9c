package coherence

// Test-only access to the protocol-corruption switch (see mutation in
// protocol.go). The mutation tests plant a known bug and assert the
// invariant checker catches it; callers must restore with SetMutation(0).

// MutateSkipInval makes ctrlInval acknowledge without invalidating.
const MutateSkipInval = mutateSkipInval

// SetMutation sets the corruption mode; 0 restores correct behavior.
func SetMutation(m int) { mutation = m }

// StallReport renders the watchdog's stall report without a stall.
func (pr *Protocol) StallReport() string { return pr.stallReport() }

// InFlight counts, over every home, the blocks whose transaction has
// requests queued behind it, the requests so queued, and the recalls in
// flight.
func (pr *Protocol) InFlight() (queuedBlocks, queued, recalls int) {
	for _, n := range pr.nodes {
		n.walk(func(_ uint64, e *entry) bool {
			if t := e.pend; t != nil {
				if len(t.waiters) > 0 {
					queuedBlocks++
					queued += len(t.waiters)
				}
				if t.recall {
					recalls++
				}
			}
			return true
		})
	}
	return queuedBlocks, queued, recalls
}

// SharerForms counts, over every home, the non-empty sharer sets held inline
// and those spilled to a full map.
func (pr *Protocol) SharerForms() (inline, spilled int) {
	for _, n := range pr.nodes {
		n.walk(func(_ uint64, e *entry) bool {
			switch {
			case e.sharers.count() == 0:
			case e.sharers.spill != nil:
				spilled++
			default:
				inline++
			}
			return true
		})
	}
	return inline, spilled
}
