// Command wwtsweep runs a matrix of simulator configurations through the
// sweep service (internal/serve) and collects per-run results — stats
// fingerprints, elapsed virtual cycles, per-category breakdowns, wall-clock
// cost — into one machine-readable JSON file, for the degradation, scaling
// and ablation sweeps in EXPERIMENTS.md.
//
// Usage:
//
//	wwtsweep -matrix FILE.json [-jobs N] [-out FILE]
//	         [-quiet] [-fail-on-error=false]
//	wwtsweep -apps em3d,lcp -machines mp -procs 32
//	         [-droprates 0,0.01,0.05] [-nackrates ...] [-seeds 1,2,3]
//	         [-size N] [-iters N] [-jobs N] [-out FILE]
//	wwtsweep -server http://HOST:PORT -matrix FILE.json [-out FILE]
//
// Either form takes [-deadline DUR] [-server-patience DUR].
//
// A matrix file is {"runs": [<spec>, ...]} where each spec is the same JSON
// object runner.Spec embeds in snapshots (app, machine, procs, faults, ...).
// Without -matrix, the flag form builds the cross product apps × machines ×
// droprates × nackrates × seeds. Rate and seed lists only apply to the
// machine that models them (droprates → mp network faults, nackrates → sm
// coherence faults); a rate of 0 means a fault-free run, listed once.
//
// The matrix goes as one batch to a sweep service: a wwtserved daemon with
// -server (its WAL and cache make the sweep restartable), else a temporary
// in-process service on a loopback port. The local service keeps its data
// under $TMPDIR and removes it at exit, also on SIGINT or SIGTERM; a write
// that fails there ends the sweep (status 2) rather than rerunning a cell
// it cannot record. Either way a panicking cell is retried and then
// recorded as a terminal failure, -deadline preempts to a resume point, and
// a repeated cell comes back from the result cache ("cached").
//
// The local service runs -jobs cells at once (default: all host cores), each
// on one host thread; fingerprints do not depend on -jobs. A daemon sizes
// its own pool, so -server rejects -jobs.
//
// Exit status: 0 on a clean sweep, 1 when -fail-on-error (default on) and
// any run aborted, 2 on bad flags, harness failures or interrupts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cost"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

// Matrix is the top-level -matrix file format.
type Matrix struct {
	Runs []runner.Spec `json:"runs"`
}

// RunResult is one run's record in the output file.
type RunResult struct {
	Index int         `json:"index"`
	Spec  runner.Spec `json:"spec"`

	Fingerprint string `json:"fingerprint"` // stats hash, hex (0x…)
	AppLine     string `json:"app_line,omitempty"`
	Elapsed     int64  `json:"elapsed_cycles"`
	WallMS      int64  `json:"wall_ms"`

	// JobID and Cached come from the sweep service: its job id and whether
	// the result came from its content-addressed cache rather than a fresh
	// run (cached results are bit-identical by construction).
	JobID  string `json:"job_id,omitempty"`
	Cached bool   `json:"cached,omitempty"`

	// Breakdown is the per-processor average cycle count per non-zero time
	// category — the paper's "where is time spent" rows.
	Breakdown map[string]float64 `json:"breakdown,omitempty"`

	// Error is the structured abort, if the run failed (starvation,
	// invariant violation, watchdog stall). Failed runs are data too — the
	// degradation sweeps chart exactly where configurations fall over.
	Error string `json:"error,omitempty"`
}

// Output is the results file schema. Jobs sizes the local service; it is 0
// with -server, where the daemon's flags size it.
type Output struct {
	StartedAt string      `json:"started_at"`
	WallMS    int64       `json:"wall_ms"`
	Jobs      int         `json:"jobs"`
	Runs      []RunResult `json:"runs"`
}

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command; it returns the exit status.
func run(args []string) int {
	fs := flag.NewFlagSet("wwtsweep", flag.ContinueOnError)
	matrixFile := fs.String("matrix", "", "JSON matrix file ({\"runs\":[spec,...]}); overrides the cross-product flags")
	apps := fs.String("apps", "", "comma-separated apps (mse|gauss|em3d|lcp|alcp)")
	machines := fs.String("machines", "", "comma-separated machines (mp|sm)")
	procs := fs.Int("procs", 32, "processor count for flag-built runs")
	size := fs.Int("size", 0, "problem size override (app-specific)")
	iters := fs.Int("iters", 0, "iteration override")
	hwCombining := fs.Bool("hw-combining", false, "ablation: in-network hardware combining tree for reductions (flag-built runs)")
	dropRates := fs.String("droprates", "", "comma-separated network drop rates (mp machines)")
	nackRates := fs.String("nackrates", "", "comma-separated directory NACK rates (sm machines)")
	seeds := fs.String("seeds", "1", "comma-separated fault seeds (fault-injected runs only)")
	jobs := fs.Int("jobs", 0, "concurrent runs of the local service (0 = all host cores)")
	out := fs.String("out", "sweep-results.json", "results file")
	quiet := fs.Bool("quiet", false, "suppress per-run progress lines")
	failOnError := fs.Bool("fail-on-error", true, "exit nonzero when any run aborts")
	server := fs.String("server", "", "wwtserved base URL (e.g. http://127.0.0.1:8723): submit the matrix there instead of to a temporary local service")
	deadline := fs.Duration("deadline", 0, "per-attempt wall-clock deadline (0 = the service's default; none locally)")
	patience := fs.Duration("server-patience", 2*time.Minute, "how long the client tolerates consecutive service unavailability (restarts, load shedding)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *server != "" {
		jobsSet := false
		fs.Visit(func(f *flag.Flag) { jobsSet = jobsSet || f.Name == "jobs" })
		if jobsSet {
			return fail("-jobs: local sweeps only; with -server the daemon sizes its own pool")
		}
	}

	var specs []runner.Spec
	var err error
	if *matrixFile != "" {
		specs, err = loadMatrix(*matrixFile)
	} else {
		specs, err = crossProduct(*apps, *machines, *procs, *size, *iters, *hwCombining, *dropRates, *nackRates, *seeds)
	}
	if err != nil {
		return fail("%v", err)
	}
	if len(specs) == 0 {
		return fail("no runs: give -matrix or -apps/-machines")
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return fail("run %d: %v", i, err)
		}
	}

	// SIGINT and SIGTERM cancel the sweep so its cleanup runs: a local
	// service drains and its directory goes. A second signal kills.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	start := time.Now()
	var cfg serve.Config // sizes the local service; zero with -server
	var results []RunResult
	if *server != "" {
		c := &client{base: *server, patience: *patience, quiet: *quiet}
		results, err = c.sweep(ctx, specs, *deadline)
	} else {
		cfg = serve.Config{Jobs: min(*jobs, len(specs))}
		if *jobs <= 0 {
			cfg.Jobs = min(runtime.NumCPU(), len(specs))
		}
		results, err = inProcessSweep(ctx, cfg, specs, *deadline, *patience, *quiet)
	}
	if ctx.Err() != nil {
		return fail("sweep interrupted")
	}
	if err != nil {
		return fail("sweep: %v", err)
	}

	output := Output{
		StartedAt: start.UTC().Format(time.RFC3339),
		WallMS:    time.Since(start).Milliseconds(),
		Jobs:      cfg.Jobs,
		Runs:      results,
	}
	blob, err := json.MarshalIndent(&output, "", "  ")
	if err != nil {
		return fail("encode results: %v", err)
	}
	blob = append(blob, '\n')
	// Atomic write: a sweep killed mid-write must never leave a truncated
	// results file for a later analysis step to choke on.
	if err := snapshot.AtomicWriteFile(*out, blob); err != nil {
		return fail("write results: %v", err)
	}
	errored := 0
	for i := range results {
		if results[i].Error != "" {
			errored++
		}
	}
	fmt.Printf("%d runs in %v wall, %d with errors -> %s\n",
		len(specs), time.Since(start).Round(time.Millisecond), errored, *out)
	if errored > 0 && *failOnError {
		fmt.Fprintf(os.Stderr, "%d of %d runs aborted (rerun with -fail-on-error=false to treat aborts as data)\n",
			errored, len(specs))
		return 1
	}
	return 0
}

// inProcessSweep is the local mode: a temporary sweep service sized by cfg,
// on a fresh data directory and a loopback port, driven by the -server
// client. The directory is removed afterwards; nothing is cached across sweeps.
func inProcessSweep(ctx context.Context, cfg serve.Config, specs []runner.Spec, deadline, patience time.Duration, quiet bool) ([]RunResult, error) {
	dir, err := os.MkdirTemp("", "wwtsweep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.Dir, cfg.MaxQueue = dir, len(specs) // never shed the one batch
	s, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() { hs.Close(); <-served }()
	s.Start()
	// Unless the client gave up or was cancelled, every job is finished;
	// Drain parks the rest. Its and Close's errors die with the directory.
	defer s.Drain(time.Minute)
	c := &client{base: "http://" + ln.Addr().String(), patience: patience, quiet: quiet, local: true}
	return c.sweep(ctx, specs, deadline)
}

func loadMatrix(path string) ([]runner.Spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Matrix
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m.Runs, nil
}

// crossProduct expands the flag form: apps × machines × (fault rates for
// the matching machine) × seeds. Rate 0 yields one fault-free run (seeds do
// not multiply a run with no randomness).
func crossProduct(apps, machines string, procs, size, iters int, hwCombining bool, dropRates, nackRates, seeds string) ([]runner.Spec, error) {
	if apps == "" || machines == "" {
		return nil, fmt.Errorf("flag form needs -apps and -machines (or use -matrix)")
	}
	drops, err := parseList(dropRates, parseRate)
	if err != nil {
		return nil, fmt.Errorf("-droprates: %w", err)
	}
	nacks, err := parseList(nackRates, parseRate)
	if err != nil {
		return nil, fmt.Errorf("-nackrates: %w", err)
	}
	sds, err := parseList(seeds, func(f string) (uint64, error) { return strconv.ParseUint(f, 10, 64) })
	if err != nil {
		return nil, fmt.Errorf("-seeds: %w", err)
	}
	if len(sds) == 0 {
		sds = []uint64{1}
	}
	var specs []runner.Spec
	for _, mach := range splitList(machines) {
		rates := []float64{0}
		switch mach {
		case "mp":
			if len(drops) > 0 {
				rates = drops
			}
		case "sm":
			if len(nacks) > 0 {
				rates = nacks
			}
		}
		for _, app := range splitList(apps) {
			for _, rate := range rates {
				sl := sds
				if rate == 0 {
					sl = sds[:1] // no randomness to seed
				}
				for _, seed := range sl {
					sp := runner.Spec{
						App: app, Machine: mach, Procs: procs,
						Size: size, Iters: iters,
						HWCombining: hwCombining,
					}
					if rate > 0 {
						switch mach {
						case "mp":
							sp.Faults = &cost.FaultsConfig{Seed: seed, DropRate: rate}
						case "sm":
							sp.SMFaults = &cost.SMFaultsConfig{Seed: seed, NACKRate: rate}
						}
					}
					specs = append(specs, sp)
				}
			}
		}
	}
	return specs, nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range splitList(s) {
		v, err := parse(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseRate(f string) (float64, error) {
	v, err := strconv.ParseFloat(f, 64)
	if err == nil && (v < 0 || v > 1) {
		err = fmt.Errorf("rate %g out of range [0,1]", v)
	}
	return v, err
}

// fail reports a harness failure and returns its exit status.
func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	return 2
}
