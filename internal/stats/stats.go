// Package stats implements the time-accounting taxonomy of the ASPLOS 1994
// study "Where is Time Spent in Message-Passing and Shared-Memory Programs?".
//
// Every cycle a simulated processor advances is charged to exactly one
// Category, and discrete events (messages, misses, bytes on the wire) are
// tallied as Counts. Accounting is phase-aware: EM3D, for example, reports
// its initialization and main loop separately (paper Tables 12 and 14).
package stats

import (
	"fmt"

	"repro/internal/snapshot"
)

// Category identifies where a processor's cycles were spent. The categories
// are the union of the message-passing breakdown (computation, local misses,
// library computation, library misses, network access, barriers) and the
// shared-memory breakdown (computation, private/shared misses, write faults,
// TLB misses, locks, barriers, reduction and synchronization computation,
// start-up wait).
type Category int

const (
	// Comp is application computation.
	Comp Category = iota
	// LocalMiss is stall time on private/local-data cache misses incurred in
	// application code (both machines; "Local Misses" in the MP tables,
	// "Private Misses" contribution to "Cache Misses" in the SM tables).
	LocalMiss
	// LibComp is time executing message-passing library code, including
	// poll-driven waiting. The paper notes that load-imbalance wait in MP
	// programs shows up here.
	LibComp
	// LibMiss is stall time on local-data cache misses incurred inside
	// message-passing library routines.
	LibMiss
	// NetAccess is time spent accessing the memory-mapped network interface
	// (status reads, tag/destination writes, FIFO loads and stores).
	NetAccess
	// BarrierWait is time blocked at the hardware barrier.
	BarrierWait
	// StartupWait is time a shared-memory processor spends waiting for
	// processor 0 to complete serial initialization and call create().
	StartupWait
	// SharedMiss is stall time on shared-data cache misses (coherence
	// protocol round trips).
	SharedMiss
	// WriteFault is stall time obtaining write permission for a read-only
	// cached block (invalidation of remote sharers).
	WriteFault
	// TLBMiss is TLB refill time.
	TLBMiss
	// LockWait is time spent acquiring and waiting for locks.
	LockWait
	// SyncComp is computation inside shared-memory synchronization
	// primitives (MCS-style reductions, lock bookkeeping).
	SyncComp
	// SyncMiss is stall time on cache misses incurred inside shared-memory
	// synchronization primitives.
	SyncMiss
	// ReductionWait is time in shared-memory software reductions
	// (reported separately for Gauss-SM).
	ReductionWait
	// LibRetrans is software overhead of the reliable-delivery transport on
	// a faulty network: sequence/acknowledgement bookkeeping, duplicate
	// filtering, and timeout-driven retransmission. It extends the paper's
	// taxonomy (the CM-5 network was lossless, so the paper has no such
	// row); in the paper's terms it is extra Lib Comp, reported separately
	// so degradation experiments can isolate it. Always zero with fault
	// injection disabled.
	LibRetrans
	// DirRetry is the shared-memory analogue of LibRetrans: time a processor
	// spends backing off and re-issuing coherence requests the home directory
	// NACKed under fault injection. It extends the paper's taxonomy the same
	// way LibRetrans does for the message-passing machine, and is always zero
	// with SM fault injection disabled.
	DirRetry
	// NumCategories is the number of categories; it is not itself a
	// category.
	NumCategories
)

var categoryNames = [NumCategories]string{
	"Computation", "Local Misses", "Lib Comp", "Lib Misses", "Network Access",
	"Barriers", "Start-up Wait", "Shared Misses", "Write Faults", "TLB Misses",
	"Locks", "Sync Comp", "Sync Miss", "Reductions", "Lib Retrans", "Dir Retry",
}

// String returns the paper's name for the category.
func (c Category) String() string {
	if c < 0 || c >= NumCategories {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// Count identifies a discrete per-processor event tally.
type Count int

const (
	// CntLocalMisses counts local/private-data cache misses (MP tables).
	CntLocalMisses Count = iota
	// CntLibMisses counts local misses incurred inside MP library code.
	CntLibMisses
	// CntMessages counts network packets injected by this node.
	CntMessages
	// CntChannelWrites counts CMMD channel-write (bulk transfer) operations.
	CntChannelWrites
	// CntActiveMessages counts active-message sends.
	CntActiveMessages
	// CntBytesData counts payload bytes of application data transmitted.
	CntBytesData
	// CntBytesControl counts header, handshake, and protocol bytes.
	CntBytesControl
	// CntPrivateMisses counts misses to private data (SM tables).
	CntPrivateMisses
	// CntSharedMissLocal counts shared-data misses whose home is this node.
	CntSharedMissLocal
	// CntSharedMissRemote counts shared-data misses to remote homes.
	CntSharedMissRemote
	// CntWriteFaults counts writes to read-only cached blocks.
	CntWriteFaults
	// CntTLBMisses counts TLB refills.
	CntTLBMisses
	// CntRetransmissions counts packets this node retransmitted after a
	// reliable-transport timeout.
	CntRetransmissions
	// CntDropped counts this node's injected packets that the fault plan
	// dropped in the network.
	CntDropped
	// CntDuplicates counts duplicate packets this node's receiver-side
	// dedup window discarded (network duplication or retransmission after
	// a lost acknowledgement).
	CntDuplicates
	// CntCorrupt counts packets this node discarded on a failed payload
	// check (fault-injected corruption).
	CntCorrupt
	// CntAcks counts reliable-transport acknowledgement packets sent.
	CntAcks
	// CntNACKs counts coherence requests this node issued that the home
	// directory NACKed (SM fault injection).
	CntNACKs
	// CntDirRetries counts coherence requests this node re-issued after a
	// NACK and backoff.
	CntDirRetries
	// NumCounts is the number of counts; it is not itself a count.
	NumCounts
)

var countNames = [NumCounts]string{
	"Local Misses", "Lib Misses", "Messages Sent", "Channel Writes",
	"Active Messages", "Bytes Data", "Bytes Control", "Private Misses",
	"Shared Misses (Local)", "Shared Misses (Remote)", "Write Faults",
	"TLB Misses", "Retransmissions", "Dropped Packets", "Duplicates Filtered",
	"Corrupt Discarded", "Acks Sent", "NACKs Received", "Dir Retries",
}

// String returns the paper's name for the count.
func (c Count) String() string {
	if c < 0 || c >= NumCounts {
		return fmt.Sprintf("Count(%d)", int(c))
	}
	return countNames[c]
}

// Phase identifies an accounting bucket; programs switch phases to report
// program regions separately (e.g. EM3D's initialization vs. main loop).
type Phase int

// PhaseDefault is the phase every processor starts in.
const PhaseDefault Phase = 0

// Acct accumulates cycles and event counts for one processor, bucketed by
// phase. The zero value is ready to use. A phase enters the table when
// SetPhase names it or a Charge/Add (even of zero) is made while it is
// current, so a never-charged account has no phases.
type Acct struct {
	phases []bucket
	cur    Phase
}

type bucket struct {
	cycles [NumCategories]int64
	counts [NumCounts]int64
}

// SetPhase switches subsequent charges to the given phase, growing the
// phase table as needed.
func (a *Acct) SetPhase(p Phase) {
	if p < 0 {
		panic("stats: negative phase")
	}
	a.ensure(p)
	a.cur = p
}

// Phase returns the current phase.
func (a *Acct) Phase() Phase { return a.cur }

func (a *Acct) ensure(p Phase) {
	for Phase(len(a.phases)) <= p {
		a.phases = append(a.phases, bucket{})
	}
}

// Charge adds cycles to a category in the current phase.
func (a *Acct) Charge(c Category, cycles int64) {
	if cycles < 0 {
		panic(fmt.Sprintf("stats: negative charge %d to %v", cycles, c))
	}
	a.ensure(a.cur)
	a.phases[a.cur].cycles[c] += cycles
}

// Add increments a count in the current phase.
func (a *Acct) Add(c Count, n int64) {
	a.ensure(a.cur)
	a.phases[a.cur].counts[c] += n
}

// Flush does nothing; charges go straight into the phase table. It stays
// because the benchmark module's probes call it.
func (a *Acct) Flush() {}

// Cycles returns the cycles charged to a category in a phase. Phases beyond
// those used return zero.
func (a *Acct) Cycles(p Phase, c Category) int64 {
	if int(p) >= len(a.phases) {
		return 0
	}
	return a.phases[p].cycles[c]
}

// Counts returns the tally of a count in a phase.
func (a *Acct) Counts(p Phase, c Count) int64 {
	if int(p) >= len(a.phases) {
		return 0
	}
	return a.phases[p].counts[c]
}

// NumPhases returns the number of phases that have been used.
func (a *Acct) NumPhases() int {
	if len(a.phases) == 0 {
		return 1
	}
	return len(a.phases)
}

// TotalCycles returns all cycles charged in a phase across categories.
func (a *Acct) TotalCycles(p Phase) int64 {
	var t int64
	for c := Category(0); c < NumCategories; c++ {
		t += a.Cycles(p, c)
	}
	return t
}

// EncodeState contributes the full accounting table — every phase's raw
// cycle and count totals plus the current phase — to a canonical state
// image. Raw int64s, not the float per-processor averages the reports
// print, so equality is exact bit equality.
func (a *Acct) EncodeState(enc *snapshot.Enc) {
	enc.Section("acct", func(enc *snapshot.Enc) {
		enc.I64(int64(a.cur))
		enc.U32(uint32(len(a.phases)))
		for i := range a.phases {
			enc.I64s(a.phases[i].cycles[:])
			enc.I64s(a.phases[i].counts[:])
		}
	})
}

// Summary aggregates the accounting of all processors: the per-processor
// average of every category and count, per phase, as the paper reports
// ("The cycle times reported represent an average over all processors").
type Summary struct {
	Procs  int
	phases []sumBucket
}

type sumBucket struct {
	cycles [NumCategories]float64
	counts [NumCounts]float64
}

// Summarize averages the accounts of all processors.
func Summarize(accts []*Acct) *Summary {
	s := &Summary{Procs: len(accts)}
	maxPh := 1
	for _, a := range accts {
		if n := a.NumPhases(); n > maxPh {
			maxPh = n
		}
	}
	s.phases = make([]sumBucket, maxPh)
	for _, a := range accts {
		for p := 0; p < maxPh; p++ {
			for c := Category(0); c < NumCategories; c++ {
				s.phases[p].cycles[c] += float64(a.Cycles(Phase(p), c))
			}
			for c := Count(0); c < NumCounts; c++ {
				s.phases[p].counts[c] += float64(a.Counts(Phase(p), c))
			}
		}
	}
	n := float64(len(accts))
	if n == 0 {
		return s
	}
	for p := range s.phases {
		for c := range s.phases[p].cycles {
			s.phases[p].cycles[c] /= n
		}
		for c := range s.phases[p].counts {
			s.phases[p].counts[c] /= n
		}
	}
	return s
}

// NumPhases returns the number of phases in the summary.
func (s *Summary) NumPhases() int { return len(s.phases) }

// Cycles returns the per-processor average cycles for a category in a phase.
func (s *Summary) Cycles(p Phase, c Category) float64 {
	if int(p) >= len(s.phases) {
		return 0
	}
	return s.phases[p].cycles[c]
}

// Counts returns the per-processor average tally for a count in a phase.
func (s *Summary) Counts(p Phase, c Count) float64 {
	if int(p) >= len(s.phases) {
		return 0
	}
	return s.phases[p].counts[c]
}

// CyclesAll sums a category's average cycles over every phase.
func (s *Summary) CyclesAll(c Category) float64 {
	var t float64
	for p := range s.phases {
		t += s.phases[p].cycles[c]
	}
	return t
}

// CountsAll sums a count's average over every phase.
func (s *Summary) CountsAll(c Count) float64 {
	var t float64
	for p := range s.phases {
		t += s.phases[p].counts[c]
	}
	return t
}

// TotalCycles sums every category in a phase.
func (s *Summary) TotalCycles(p Phase) float64 {
	var t float64
	for c := Category(0); c < NumCategories; c++ {
		t += s.Cycles(p, c)
	}
	return t
}

// TotalCyclesAll sums every category across all phases.
func (s *Summary) TotalCyclesAll() float64 {
	var t float64
	for p := range s.phases {
		t += s.TotalCycles(Phase(p))
	}
	return t
}

// CompPerDataByte returns the paper's communication-intensity metric:
// computation cycles per application data byte transmitted, for a phase.
// It returns 0 when no data bytes were transmitted.
func (s *Summary) CompPerDataByte(p Phase) float64 {
	b := s.Counts(p, CntBytesData)
	if b == 0 {
		return 0
	}
	return s.Cycles(p, Comp) / b
}
