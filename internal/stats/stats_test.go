package stats

import (
	"testing"
	"testing/quick"

	"repro/internal/snapshot"
)

func TestChargeAndPhases(t *testing.T) {
	a := &Acct{}
	a.Charge(Comp, 100)
	a.SetPhase(2)
	a.Charge(Comp, 50)
	a.Charge(LibComp, 7)
	a.Add(CntMessages, 3)
	if got := a.Cycles(PhaseDefault, Comp); got != 100 {
		t.Errorf("phase 0 comp = %d", got)
	}
	if got := a.Cycles(2, Comp); got != 50 {
		t.Errorf("phase 2 comp = %d", got)
	}
	if got := a.Cycles(1, Comp); got != 0 {
		t.Errorf("untouched phase = %d", got)
	}
	if got := a.Counts(2, CntMessages); got != 3 {
		t.Errorf("counts = %d", got)
	}
	if a.NumPhases() != 3 {
		t.Errorf("NumPhases = %d", a.NumPhases())
	}
	if got := a.TotalCycles(2); got != 57 {
		t.Errorf("total = %d", got)
	}
}

func TestNegativeChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := &Acct{}
	a.Charge(Comp, -1)
}

func TestSummarizeAverages(t *testing.T) {
	a, b := &Acct{}, &Acct{}
	a.Charge(Comp, 100)
	b.Charge(Comp, 300)
	b.SetPhase(1)
	b.Charge(BarrierWait, 40)
	s := Summarize([]*Acct{a, b})
	if got := s.Cycles(PhaseDefault, Comp); got != 200 {
		t.Errorf("avg comp = %v", got)
	}
	if got := s.Cycles(1, BarrierWait); got != 20 {
		t.Errorf("avg barrier = %v", got)
	}
	if got := s.CyclesAll(Comp); got != 200 {
		t.Errorf("all-phase comp = %v", got)
	}
	if got := s.TotalCyclesAll(); got != 220 {
		t.Errorf("grand total = %v", got)
	}
}

func TestCompPerDataByte(t *testing.T) {
	a := &Acct{}
	a.Charge(Comp, 1000)
	a.Add(CntBytesData, 50)
	s := Summarize([]*Acct{a})
	if got := s.CompPerDataByte(PhaseDefault); got != 20 {
		t.Errorf("comp/byte = %v", got)
	}
	empty := Summarize([]*Acct{{}})
	if got := empty.CompPerDataByte(PhaseDefault); got != 0 {
		t.Errorf("empty comp/byte = %v", got)
	}
}

func TestCategoryAndCountNames(t *testing.T) {
	for c := Category(0); c < NumCategories; c++ {
		if c.String() == "" || len(c.String()) > 40 {
			t.Errorf("bad name for category %d: %q", c, c.String())
		}
	}
	for c := Count(0); c < NumCounts; c++ {
		if c.String() == "" {
			t.Errorf("bad name for count %d", c)
		}
	}
	if Category(99).String() != "Category(99)" {
		t.Error("out-of-range category name")
	}
}

func TestSummarizeConservesTotals(t *testing.T) {
	// Property: sum over processors of per-category cycles equals
	// procs * averaged summary value.
	f := func(charges []uint16) bool {
		accts := []*Acct{{}, {}, {}}
		var total int64
		for i, c := range charges {
			v := int64(c % 1000)
			accts[i%3].Charge(Category(int(c)%int(NumCategories)), v)
			total += v
		}
		s := Summarize(accts)
		return int64(s.TotalCyclesAll()*3+0.5) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPhaseTableSequence pins when a phase enters the table, against
// literals recorded before charges went straight into the phase buckets. A
// phase exists once SetPhase names it or a Charge/Add (even of zero) is made
// while it is current; a never-charged account encodes no phases. The
// encoded length is part of every stats fingerprint, so this rule is too.
func TestPhaseTableSequence(t *testing.T) {
	var enc snapshot.Enc
	never := &Acct{}
	never.EncodeState(&enc)

	early := &Acct{}
	early.Charge(Comp, 100)
	early.Add(CntMessages, 2)
	early.Charge(LibComp, 7)
	early.EncodeState(&enc)

	zeroCharge, zeroAdd := &Acct{}, &Acct{}
	zeroCharge.Charge(LocalMiss, 0)
	zeroAdd.Add(CntTLBMisses, 0)
	zeroCharge.EncodeState(&enc)
	zeroAdd.EncodeState(&enc)

	phased := &Acct{}
	phased.Charge(Comp, 5)
	phased.SetPhase(3)
	phased.EncodeState(&enc)
	phased.Charge(SharedMiss, 40)
	phased.Add(CntSharedMissRemote, 1)
	phased.SetPhase(1)
	phased.Charge(BarrierWait, 9)
	phased.Add(CntBytesData, 64)
	phased.Charge(BarrierWait, 0)
	phased.EncodeState(&enc)

	accts := []*Acct{never, early, zeroCharge, zeroAdd, phased}
	wantPhases := []int{1, 1, 1, 1, 4}
	for i, a := range accts {
		if got := a.NumPhases(); got != wantPhases[i] {
			t.Errorf("account %d: NumPhases %d, want %d", i, got, wantPhases[i])
		}
	}
	const wantState uint64 = 0x153593ca3a286067
	if got := snapshot.Hash(enc.Bytes()); got != wantState {
		t.Errorf("EncodeState hash %#x, want %#x", got, wantState)
	}

	s := Summarize(accts)
	if s.NumPhases() != 4 {
		t.Errorf("summary NumPhases %d, want 4", s.NumPhases())
	}
	var sum snapshot.Enc
	for p := Phase(0); p < Phase(s.NumPhases()); p++ {
		for c := Category(0); c < NumCategories; c++ {
			sum.F64(s.Cycles(p, c))
		}
		for c := Count(0); c < NumCounts; c++ {
			sum.F64(s.Counts(p, c))
		}
	}
	const wantSummary uint64 = 0x896eea101399d197
	if got := snapshot.Hash(sum.Bytes()); got != wantSummary {
		t.Errorf("Summarize hash %#x, want %#x", got, wantSummary)
	}
}
