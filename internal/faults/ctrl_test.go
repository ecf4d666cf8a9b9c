package faults

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/cost"
)

// TestCtrlPlanDrawSequence pins the control-fault plan's draw order: 200
// decisions, every third one a DecideMessage and the rest DecideRequest,
// hashed (FNV-1a over the NACK flag and the delay of each) and compared with
// the literals recorded when the plan still compiled a per-epoch, per-link
// schedule. Reordering the NACK, reorder and jitter draws, or drawing for a
// refused request, changes the hash.
func TestCtrlPlanDrawSequence(t *testing.T) {
	const (
		wantHash     uint64 = 0x996898154e6adb05
		wantRNGState uint64 = 0x4dd0288cecbf4be8
		wantNACKs           = 26
		wantDelayed         = 99
	)
	f := cost.SMFaultsConfig{Seed: 7, NACKRate: 0.2, ReorderRate: 0.3, DelayRate: 0.4}.WithDefaults(100)
	p := CtrlFromConfig(f, 100)
	want := []CtrlDecision{{}, {NACK: true}, {NACK: true}, {}, {Delay: 381}, {}, {Delay: 142}, {}}

	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 200; i++ {
		var d CtrlDecision
		if i%3 == 0 {
			d = p.DecideMessage()
		} else {
			d = p.DecideRequest()
		}
		if i < len(want) && d != want[i] {
			t.Errorf("decision %d = %+v, want %+v", i, d, want[i])
		}
		nack := uint64(0)
		if d.NACK {
			nack = 1
		}
		for _, x := range []uint64{nack, uint64(d.Delay)} {
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		}
	}
	if got := h.Sum64(); got != wantHash {
		t.Errorf("decision sequence hash %#x, want %#x", got, wantHash)
	}
	if p.Decisions != 200 || p.NACKs != wantNACKs || p.Delayed != wantDelayed {
		t.Errorf("tallies decisions=%d nacks=%d delayed=%d, want 200, %d, %d",
			p.Decisions, p.NACKs, p.Delayed, wantNACKs, wantDelayed)
	}
	if got := p.rng.State(); got != wantRNGState {
		t.Errorf("RNG state after 200 decisions %#x, want %#x", got, wantRNGState)
	}
}

// TestCtrlPlanZeroRatesNeverFault: a plan that can never fire draws nothing,
// so arming it cannot move the RNG a later nonzero plan would use.
func TestCtrlPlanZeroRatesNeverFault(t *testing.T) {
	p := CtrlFromConfig(cost.SMFaultsConfig{Seed: 3}.WithDefaults(100), 100)
	before := p.rng.State()
	for i := 0; i < 50; i++ {
		if d := p.DecideRequest(); d != (CtrlDecision{}) {
			t.Fatalf("zero-rate plan decided %+v", d)
		}
		if d := p.DecideMessage(); d != (CtrlDecision{}) {
			t.Fatalf("zero-rate plan decided %+v", d)
		}
	}
	if p.rng.State() != before || p.Decisions != 100 {
		t.Errorf("zero-rate plan drew from its RNG or miscounted (%d decisions)", p.Decisions)
	}
}
