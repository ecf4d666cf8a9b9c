// Command wwtsim runs one application on one simulated machine and prints
// its full time breakdown and event counts — the workhorse for exploring
// configurations beyond the paper's tables (processor counts, cache sizes,
// allocation policies, collective tree shapes).
//
// Usage:
//
//	wwtsim -app mse|gauss|em3d|lcp|alcp -machine mp|sm
//	       [-procs N] [-cache BYTES] [-shape flat|binary|lopsided]
//	       [-policy rr|local] [-size N] [-iters N]
//	       [-faults] [-droprate P] [-duprate P] [-corruptrate P]
//	       [-jitter P] [-faultseed S] [-maxretries N]
//	       [-smcheck] [-smfaults] [-nackrate P] [-reorderrate P]
//	       [-watchdog CYCLES]
//	       [-checkpoint-every CYCLES] [-checkpoint-dir DIR]
//	       [-resume FILE] [-run-until CYCLE]
//
// -faults enables deterministic fault injection on the message-passing
// machine's network (drops, duplicates, corruption, delay jitter at the
// given per-packet probabilities) and layers a reliable-delivery transport
// under the active-message layer; its costs appear as the "Lib Retrans" row
// and the retransmission/drop/duplicate counters. The same -faultseed
// reproduces the same run bit-for-bit.
//
// The shared-memory machine has the symmetric robustness controls:
// -smcheck arms the runtime coherence invariant checker (single writer,
// directory/cache agreement, message conservation; violations abort with a
// forensic report). -smfaults enables deterministic fault injection on
// coherence traffic — the home directory NACKs requests at -nackrate and
// control messages are reordered past later traffic at -reorderrate — with
// NACK retry/backoff costs on the "Dir Retry" row and the NACK/retry
// counters; -faultseed seeds it. -watchdog N aborts with a stall report if
// requests stay outstanding for N cycles with no transaction granting
// (simulated livelock).
//
// -checkpoint-every N writes a snapshot (ckpt-<cycle>.wws in
// -checkpoint-dir) at the first quantum boundary at or after every N
// cycles. -resume FILE rebuilds the run recorded in the snapshot, replays
// it deterministically, verifies bit-identical machine state and accounting
// at the checkpoint cycle (any divergence aborts loudly), and continues to
// completion. -run-until C stops a run cleanly at the first quantum
// boundary at or after cycle C with partial stats — re-running with tighter
// stop cycles bisects a failing run to its first divergent quantum.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

func main() {
	app := flag.String("app", "em3d", "application: mse|gauss|em3d|lcp|alcp")
	mach := flag.String("machine", "mp", "machine: mp|sm")
	procs := flag.Int("procs", 32, "processor count")
	cache := flag.Int("cache", 256<<10, "cache bytes per node")
	shapeStr := flag.String("shape", "lopsided", "collective tree: flat|binary|lopsided")
	policy := flag.String("policy", "rr", "gmalloc policy: rr|local")
	size := flag.Int("size", 0, "problem size override (app-specific)")
	iters := flag.Int("iters", 0, "iteration override")
	faultsOn := flag.Bool("faults", false, "enable network fault injection (mp only)")
	dropRate := flag.Float64("droprate", 0, "per-packet drop probability")
	dupRate := flag.Float64("duprate", 0, "per-packet duplication probability")
	corruptRate := flag.Float64("corruptrate", 0, "per-packet corruption probability")
	jitter := flag.Float64("jitter", 0, "per-packet extra-delay probability")
	faultSeed := flag.Uint64("faultseed", 1, "fault-injection RNG seed")
	maxRetries := flag.Int("maxretries", 0, "transport retry budget override (0 = default)")
	smCheck := flag.Bool("smcheck", false, "arm the coherence invariant checker (sm only)")
	smFaults := flag.Bool("smfaults", false, "enable coherence-traffic fault injection (sm only)")
	nackRate := flag.Float64("nackrate", 0, "per-request directory NACK probability")
	reorderRate := flag.Float64("reorderrate", 0, "per-message coherence reorder probability")
	watchdog := flag.Int64("watchdog", 0, "coherence stall watchdog window in cycles (sm only, 0 = off)")
	ckEvery := flag.Int64("checkpoint-every", 0, "write a snapshot every N cycles (0 = off)")
	ckDir := flag.String("checkpoint-dir", ".", "directory for checkpoint files")
	resume := flag.String("resume", "", "resume (replay + verify) from a snapshot file")
	runUntil := flag.Int64("run-until", 0, "stop cleanly at the first quantum boundary at or after this cycle (0 = off)")
	hwCombining := flag.Bool("hw-combining", false, "ablation: in-network hardware combining tree for reductions")
	flag.Parse()

	for _, r := range []struct {
		name string
		v    float64
	}{{"droprate", *dropRate}, {"duprate", *dupRate}, {"corruptrate", *corruptRate},
		{"jitter", *jitter}, {"nackrate", *nackRate}, {"reorderrate", *reorderRate}} {
		if r.v < 0 || r.v > 1 {
			fatal("-%s %g out of range [0,1]", r.name, r.v)
		}
	}
	if *ckEvery < 0 || *runUntil < 0 {
		fatal("-checkpoint-every and -run-until must be non-negative")
	}

	opts := runner.Options{
		CheckpointEvery: sim.Time(*ckEvery),
		CheckpointDir:   *ckDir,
		RunUntil:        sim.Time(*runUntil),
	}

	var spec runner.Spec
	if *resume != "" {
		snap, err := snapshot.ReadFile(*resume)
		if err != nil {
			fatal("-resume: %v", err)
		}
		sp, err := runner.SpecFromSnapshot(snap)
		if err != nil {
			fatal("-resume: %v", err)
		}
		spec = *sp
		opts.Resume = snap
		fmt.Printf("resuming %s on %s from %s (checkpoint cycle %d)\n",
			spec.App, spec.Machine, *resume, snap.Cycle)
	} else {
		spec = runner.Spec{
			App: *app, Machine: *mach, Procs: *procs,
			CacheBytes: *cache, Shape: *shapeStr, Policy: *policy,
			Size: *size, Iters: *iters,
			SMCheck: *smCheck, SMWatchdog: *watchdog,
			HWCombining: *hwCombining,
		}
		if *faultsOn || *dropRate > 0 || *dupRate > 0 || *corruptRate > 0 || *jitter > 0 {
			if *mach != "mp" {
				fatal("fault injection models the message-passing network; use -machine mp")
			}
			spec.Faults = &cost.FaultsConfig{
				Seed: *faultSeed, DropRate: *dropRate, DupRate: *dupRate,
				CorruptRate: *corruptRate, DelayRate: *jitter,
				MaxRetries: *maxRetries,
			}
		}
		if *smCheck || *smFaults || *nackRate > 0 || *reorderRate > 0 || *watchdog > 0 {
			if *mach != "sm" {
				fatal("coherence robustness controls model the shared-memory machine; use -machine sm")
			}
		}
		if *smFaults || *nackRate > 0 || *reorderRate > 0 {
			spec.SMFaults = &cost.SMFaultsConfig{
				Seed: *faultSeed, NACKRate: *nackRate, ReorderRate: *reorderRate,
			}
		}
		if err := spec.Validate(); err != nil {
			fatal("%v", err)
		}
	}

	start := time.Now()
	out, err := runner.Run(spec, opts)
	if err != nil {
		// Harness-level failure: replay divergence or a checkpoint write
		// error. Partial stats, when present, still describe the execution.
		fmt.Printf("\nRUN ABORTED: %v\n", err)
		if out != nil && out.Res != nil {
			fmt.Println("(stats below cover the partial execution)")
			printBreakdown(out.Res)
		}
		os.Exit(1)
	}
	fmt.Println(out.AppLine)
	fmt.Printf("simulated %d procs in %v wall\n", spec.Procs, time.Since(start).Round(time.Millisecond))
	for _, cp := range out.Checkpoints {
		fmt.Printf("checkpoint: %s (cycle %d)\n", cp.Path, cp.Cycle)
	}
	if out.Verified {
		fmt.Printf("replay verified: state and stats bit-identical at cycle %d\n", opts.Resume.Cycle)
	}
	switch {
	case out.Stopped:
		fmt.Printf("\nRUN STOPPED at cycle %d (-run-until %d); stats cover the partial execution\n",
			out.StoppedAt, *runUntil)
	case out.Res.Err != nil:
		fmt.Printf("\nRUN ABORTED: %v\n(stats below cover the partial execution)\n", out.Res.Err)
	}
	printBreakdown(out.Res)
	fmt.Printf("\nstats fingerprint: %#x\n", out.Fingerprint)
	if out.Res.Err != nil && !out.Stopped {
		os.Exit(1)
	}
}

func printBreakdown(res *machine.Result) {
	s := res.Summary
	tot := s.TotalCyclesAll()
	fmt.Printf("\nper-processor average time breakdown (%.1fM cycles total; elapsed %.1fM):\n",
		tot/1e6, float64(res.Elapsed)/1e6)
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		v := s.CyclesAll(c)
		if v == 0 {
			continue
		}
		fmt.Printf("  %-16s %10.1fM  %5.1f%%\n", c, v/1e6, 100*v/tot)
	}
	fmt.Println("\nper-processor average event counts:")
	for c := stats.Count(0); c < stats.NumCounts; c++ {
		v := s.CountsAll(c)
		if v == 0 {
			continue
		}
		fmt.Printf("  %-24s %12.0f\n", c, v)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
