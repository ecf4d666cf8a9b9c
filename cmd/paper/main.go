// Command paper regenerates the results tables of Chandra, Larus & Rogers,
// "Where is Time Spent in Message-Passing and Shared-Memory Programs?"
// (ASPLOS 1994), printing each measured quantity next to the paper's
// published value.
//
// Usage:
//
//	paper [-quick] [-table N] [-app mse|gauss|em3d|lcp|ablation]
//
// With no flags it regenerates every table (4-23) and the two ablations at
// the paper's scale (32 processors); -quick runs reduced workloads on 8
// processors. -table selects one table by its paper number; -app selects
// one application's table group. Either way only the runs the selected
// group reads are made (runner.PaperSpecs names them), up to GOMAXPROCS of
// them at once, and the tables are built from their outcomes
// (tables.Build). After the tables it prints one "fingerprint NAME 0x…"
// line per run, the same digest wwtsim prints for that run's spec.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/tables"
)

func main() {
	quick := flag.Bool("quick", false, "reduced workloads on 8 processors")
	tableNum := flag.Int("table", 0, "regenerate a single table by paper number (4-23)")
	app := flag.String("app", "", "regenerate one application's tables: mse|gauss|em3d|lcp|ablation")
	flag.Parse()

	// One lookup: -table picks the group that prints it, -app names one.
	var runs []string
	for _, g := range tables.Groups {
		if (*tableNum == 0 && (*app == "" || *app == g.Name)) || slices.Contains(g.Tables, *tableNum) {
			runs = append(runs, g.Runs...)
		}
	}
	if len(runs) == 0 {
		fmt.Fprintf(os.Stderr, "no such paper table (valid: 4-23) or app: -table %d -app %q\n", *tableNum, *app)
		os.Exit(2)
	}
	var specs []runner.NamedSpec
	for _, ns := range runner.PaperSpecs(*quick) {
		if slices.Contains(runs, ns.Name) {
			specs = append(specs, ns)
		}
	}

	start := time.Now()
	outs := make(map[string]*runner.Outcome, len(specs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, ns := range specs {
		slots <- struct{}{} // in list order: the long runs start first
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := runner.Run(ns.Spec, runner.Options{})
			if err == nil {
				err = out.Res.Err
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", ns.Name, err)
				os.Exit(1)
			}
			mu.Lock()
			outs[ns.Name] = out
			mu.Unlock()
			<-slots
		}()
	}
	wg.Wait()

	ts := tables.Build(*quick, outs)
	if *tableNum != 0 {
		tables.Find(ts, *tableNum).Render(os.Stdout)
	} else {
		tables.RenderAll(ts, os.Stdout)
	}
	for _, ns := range specs {
		fmt.Printf("fingerprint %s %#x\n", ns.Name, outs[ns.Name].Fingerprint)
	}
	fmt.Printf("regenerated in %v\n", time.Since(start).Round(time.Millisecond))
}
