// Package cost defines the hardware cost model shared by the simulated
// message-passing and shared-memory machines.
//
// The values mirror Tables 1-3 of Chandra, Larus, and Rogers, "Where is Time
// Spent in Message-Passing and Shared-Memory Programs?" (ASPLOS 1994). Both
// machines are modeled after a Thinking Machines CM-5: workstation-like nodes
// with a SPARC processor, a 256 KB 4-way set-associative cache, local DRAM,
// and a point-to-point network with a constant 100-cycle latency and no
// contention. All times are in processor cycles (the paper assumes a 30 ns
// cycle).
package cost

import "fmt"

// Config collects every hardware parameter of the simulated machines.
// The zero value is not useful; start from Default.
type Config struct {
	// Procs is the number of processor nodes (the paper uses 32 for all
	// experiments; 1-4096 are supported).
	Procs int

	// --- Table 1: common hardware characteristics ---

	CacheBytes int // cache capacity (256 KB)
	CacheAssoc int // set associativity (4-way, random replacement)
	BlockBytes int // cache block size (32 bytes)

	TLBEntries int // fully associative, FIFO replacement (64)
	PageBytes  int // page size (4 KB)

	NetLatency     int64 // remote message latency (100 cycles)
	BarrierLatency int64 // barrier cost from last arrival (100 cycles)

	PrivateMissCycles int64 // private cache miss, excluding DRAM (11)
	DRAMCycles        int64 // DRAM access (10)

	// TLBMissCycles is the cost of a TLB refill. The paper reports TLB miss
	// cycles (Table 14) but not the unit cost; 30 cycles reproduces EM3D's
	// initialization TLB time.
	TLBMissCycles int64

	// --- Table 2: message-passing machine ---

	MPReplacement  int64 // replacement cost with infinite write buffer (1)
	NIStatusCycles int64 // network-interface status word access (5)
	NIWriteTagDest int64 // write tag + destination (5)
	NISendCycles   int64 // send 5 words, including stores (15)
	NIRecvCycles   int64 // receive 5 words, including loads (15)

	PacketBytes   int // wire size of one packet (20, as on the CM-5)
	PacketPayload int // payload bytes after the tag/header word (16)

	// Software overheads of the communication stack. These are calibration
	// constants, not Table 2 values: the paper runs the real CMAML/CMMD
	// binaries and observes their cost ("the high latency of sending and
	// receiving a message"; LogP's premise that send/receive overhead
	// exceeds the 100-cycle network latency). Defaults reproduce the
	// paper's library-time fractions.

	AMSendCycles     int64 // CMAML software overhead composing a request, beyond NI stores
	AMDispatchCycles int64 // CMAML poll-and-dispatch overhead invoking a handler
	CMMDCallCycles   int64 // CMMD high-level send/recv entry: channel setup, bookkeeping
	CMMDPerPacket    int64 // CMMD per-packet software cost while streaming a channel
	CollectiveEntry  int64 // software entry cost of a reduction/broadcast call

	// --- Table 3: shared-memory machine ---

	MsgToSelf         int64 // message to own node (10)
	SharedMissCycles  int64 // shared cache miss, processor side (19)
	InvalidateCycles  int64 // cache invalidate at a sharer (3)
	ReplPrivate       int64 // replacement: private block (1)
	ReplSharedClean   int64 // replacement: shared, clean (5)
	ReplSharedDirty   int64 // replacement: shared, dirty (13)
	DirBase           int64 // directory occupancy per request (10)
	DirBlockRecv      int64 // + if a cache block is received (8)
	DirMsgSend        int64 // + if a message is sent (5)
	DirBlockSend      int64 // + if a cache block is sent (8)
	SMMsgBytes        int   // shared-memory message size (40: block + control)
	SMMsgControlBytes int   // control portion of a block-carrying message (8)

	// --- In-network combining ablation (extension; the paper's machines
	// deliberately omit reduction/broadcast hardware, §4) ---

	// HWCombining, when true, gives both machines an in-network combining
	// tree (NYU Ultracomputer / CM-5 control-network style): reductions
	// deposit a contribution at the network port and receive the combined
	// result BarrierLatency cycles after the last contributor — a combining
	// episode of the hardware barrier — instead of ascending the software
	// reduction trees. The ablation measures how much of the software
	// reduction time (Gauss's "Reductions" row and the MP library's
	// collective time) hardware combining would reclaim at large P. Off (the
	// default) leaves runs bit-identical to the seed.
	HWCombining bool

	// --- Fault injection and reliable transport (extension; not in the
	// paper, whose CM-5 network is lossless) ---

	// Faults, when non-nil, enables deterministic network fault injection
	// on the message-passing machine and layers the reliable-delivery
	// transport over active messages. Nil (the default) leaves the seed's
	// perfect-network fast path untouched.
	Faults *FaultsConfig

	// Software costs of the reliable transport, charged to the LibRetrans
	// category. Only incurred when Faults is non-nil.
	RelSeqCycles     int64 // sender sequence/window bookkeeping per packet
	RelAckCycles     int64 // composing or processing one cumulative ack
	RelRetransCycles int64 // software overhead per retransmitted packet

	// --- Shared-memory robustness layer (extension; not in the paper,
	// whose directory protocol is assumed bug-free on a perfect
	// interconnect) ---

	// SMCheck enables the runtime coherence invariant checker: after every
	// directory transaction settles, the checker verifies single-writer/
	// multiple-reader, directory/cache-state agreement, and per-home message
	// conservation, aborting the run with a structured
	// coherence.InvariantError on the first violation. Off (the default)
	// adds zero overhead and leaves runs bit-identical.
	SMCheck bool

	// SMFaults, when non-nil, enables deterministic fault injection on the
	// shared-memory machine's coherence traffic (directory NACKs, message
	// delay/reordering) and arms the requester-side NACK/retry loop. Nil
	// (the default) leaves the perfect-interconnect fast path untouched.
	SMFaults *SMFaultsConfig

	// SMWatchdog, when positive, arms a livelock/deadlock watchdog on the
	// shared-memory machine: if no directory transaction completes for this
	// many cycles of virtual time, the run aborts with a stall report naming
	// the hot blocks and each node's last protocol action. Zero disables it.
	SMWatchdog int64

	// NACKRetryCycles is the software overhead of re-issuing a NACKed
	// coherence request, charged to the DirRetry category on top of the
	// backoff wait. Only incurred when SMFaults is non-nil.
	NACKRetryCycles int64

	// OnBuild, when non-nil, is invoked once at the end of machine
	// construction with the assembled machine (*machine.MPMachine or
	// *machine.SMMachine), before any simulated cycle runs. It exists so
	// callers that only reach the machine through an application's Run
	// function (which builds and runs in one step) can still install
	// engine hooks — the checkpoint/restart runner uses it to attach its
	// quantum-boundary snapshot trigger. The callback must not start the
	// run itself. Typed any because cost sits below the machine package.
	OnBuild func(m any) `json:"-"`
}

// SMFaultsConfig is the shared-memory fault-injection specification: one
// rate set applied to every coherence-protocol link for the whole run, plus
// NACK/retry tuning. Machine construction converts it into the control-fault
// plan (faults.CtrlFromConfig), which holds exactly that one rate set.
type SMFaultsConfig struct {
	// Seed drives the control-message fault plan's deterministic RNG.
	// Identical seeds (and configurations) reproduce identical fault
	// sequences bit-for-bit.
	Seed uint64

	// NACKRate is the per-request probability in [0,1) that the home
	// directory NACKs an arriving coherence request instead of servicing
	// it; the requester backs off exponentially and retries.
	NACKRate float64

	// ReorderRate is the per-message probability in [0,1) that a protocol
	// control message (reply, invalidation, recall, acknowledgement) is
	// deferred past at least one full network-latency window, letting later
	// messages overtake it.
	ReorderRate float64

	// DelayRate is the per-message probability in [0,1) of extra delivery
	// jitter, uniform in [1, MaxDelay] cycles.
	DelayRate float64

	// MaxDelay bounds the extra jitter in cycles (default 4x the network
	// latency).
	MaxDelay int64

	// Backoff is the initial requester backoff after a NACK, in cycles
	// (default 4x the network latency); it doubles per consecutive NACK of
	// the same request up to BackoffMax (default 64x Backoff).
	Backoff, BackoffMax int64

	// RetryBudget bounds consecutive NACKs of one request; exhausting it
	// aborts the run with a structured faults.RetryStarvationError instead
	// of livelocking (default 16).
	RetryBudget int
}

// WithDefaults returns a copy of f with unset tuning fields filled from the
// machine's network latency.
func (f SMFaultsConfig) WithDefaults(netLatency int64) SMFaultsConfig {
	if f.MaxDelay <= 0 {
		f.MaxDelay = 4 * netLatency
	}
	if f.Backoff <= 0 {
		f.Backoff = 4 * netLatency
	}
	if f.BackoffMax <= 0 {
		f.BackoffMax = 64 * f.Backoff
	}
	if f.RetryBudget <= 0 {
		f.RetryBudget = 16
	}
	return f
}

// FaultsConfig is the uniform fault-injection specification: one rate set
// applied to every link for the whole run, plus reliable-transport tuning.
// Machine construction converts it into a single-epoch wildcard plan
// (faults.FromConfig); only tests build per-link, per-epoch network
// schedules, with faults.NewPlan.
type FaultsConfig struct {
	// Seed drives the fault plan's deterministic RNG. Identical seeds (and
	// configurations) reproduce identical fault sequences bit-for-bit.
	Seed uint64

	// DropRate, DupRate, CorruptRate, and DelayRate are per-packet
	// probabilities in [0,1) that an injected packet is dropped, delivered
	// twice, delivered with a flipped payload bit, or delayed by extra
	// jitter.
	DropRate, DupRate, CorruptRate, DelayRate float64

	// MaxDelay bounds the extra delivery jitter in cycles (uniform in
	// [1, MaxDelay]; default 4x the network latency).
	MaxDelay int64

	// RTO is the transport's initial retransmission timeout in cycles
	// (default 12x the network latency); it backs off exponentially to
	// RTOMax (default 64x RTO) and resets when a cumulative ack makes
	// progress.
	RTO, RTOMax int64

	// MaxRetries bounds consecutive timeouts without ack progress for any
	// one peer; exhausting it aborts the run with a structured starvation
	// report instead of deadlocking (default 16).
	MaxRetries int

	// Window is the go-back-N send window and receiver dedup/reorder
	// window, in packets per peer (default 64).
	Window int
}

// WithDefaults returns a copy of f with unset tuning fields filled from the
// machine's network latency.
func (f FaultsConfig) WithDefaults(netLatency int64) FaultsConfig {
	if f.MaxDelay <= 0 {
		f.MaxDelay = 4 * netLatency
	}
	if f.RTO <= 0 {
		f.RTO = 12 * netLatency
	}
	if f.RTOMax <= 0 {
		f.RTOMax = 64 * f.RTO
	}
	if f.MaxRetries <= 0 {
		f.MaxRetries = 16
	}
	if f.Window <= 0 {
		f.Window = 64
	}
	return f
}

// Default returns the paper's machine configuration (Tables 1-3) for the
// given number of processors.
func Default(procs int) Config {
	return Config{
		Procs: procs,

		CacheBytes: 256 << 10,
		CacheAssoc: 4,
		BlockBytes: 32,

		TLBEntries: 64,
		PageBytes:  4 << 10,

		NetLatency:     100,
		BarrierLatency: 100,

		PrivateMissCycles: 11,
		DRAMCycles:        10,
		TLBMissCycles:     30,

		MPReplacement:  1,
		NIStatusCycles: 5,
		NIWriteTagDest: 5,
		NISendCycles:   15,
		NIRecvCycles:   15,

		PacketBytes:   20,
		PacketPayload: 16,

		AMSendCycles:     45,
		AMDispatchCycles: 45,
		CMMDCallCycles:   250,
		CMMDPerPacket:    42,
		CollectiveEntry:  80,

		MsgToSelf:         10,
		SharedMissCycles:  19,
		InvalidateCycles:  3,
		ReplPrivate:       1,
		ReplSharedClean:   5,
		ReplSharedDirty:   13,
		DirBase:           10,
		DirBlockRecv:      8,
		DirMsgSend:        5,
		DirBlockSend:      8,
		SMMsgBytes:        40,
		SMMsgControlBytes: 8,

		RelSeqCycles:     8,
		RelAckCycles:     12,
		RelRetransCycles: 30,

		NACKRetryCycles: 19,
	}
}

// Sets returns the number of cache sets implied by the configuration.
func (c *Config) Sets() int { return c.CacheBytes / (c.BlockBytes * c.CacheAssoc) }

// PrivateMissTotal is the full cost of a private-data cache miss: the miss
// handling plus the DRAM access (Table 1 footnote: the 11 cycles exclude
// DRAM).
func (c *Config) PrivateMissTotal() int64 { return c.PrivateMissCycles + c.DRAMCycles }

// Validate reports whether the configuration is internally consistent.
func (c *Config) Validate() error {
	switch {
	case c.Procs < 1 || c.Procs > 4096:
		return errf("procs %d out of range [1,4096]", c.Procs)
	case c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return errf("block size %d must be a positive power of two", c.BlockBytes)
	case c.CacheBytes%(c.BlockBytes*c.CacheAssoc) != 0:
		return errf("cache size %d not divisible by block*assoc", c.CacheBytes)
	case c.PageBytes <= 0 || c.PageBytes&(c.PageBytes-1) != 0:
		return errf("page size %d must be a positive power of two", c.PageBytes)
	case c.PacketPayload >= c.PacketBytes:
		return errf("packet payload %d must leave room for the header in %d",
			c.PacketPayload, c.PacketBytes)
	case c.NetLatency <= 0:
		return errf("network latency must be positive")
	}
	if f := c.Faults; f != nil {
		for _, r := range []struct {
			name string
			v    float64
		}{{"drop", f.DropRate}, {"dup", f.DupRate},
			{"corrupt", f.CorruptRate}, {"delay", f.DelayRate}} {
			if r.v < 0 || r.v > 1 {
				return errf("fault %s rate %g out of range [0,1]", r.name, r.v)
			}
		}
		if f.MaxDelay < 0 || f.RTO < 0 || f.RTOMax < 0 || f.MaxRetries < 0 || f.Window < 0 {
			return errf("fault tuning fields must be non-negative")
		}
	}
	if f := c.SMFaults; f != nil {
		for _, r := range []struct {
			name string
			v    float64
		}{{"nack", f.NACKRate}, {"reorder", f.ReorderRate}, {"delay", f.DelayRate}} {
			if r.v < 0 || r.v > 1 {
				return errf("sm fault %s rate %g out of range [0,1]", r.name, r.v)
			}
		}
		if f.MaxDelay < 0 || f.Backoff < 0 || f.BackoffMax < 0 || f.RetryBudget < 0 {
			return errf("sm fault tuning fields must be non-negative")
		}
	}
	if c.SMWatchdog < 0 {
		return errf("sm watchdog window must be non-negative")
	}
	return nil
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }
