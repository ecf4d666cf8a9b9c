// Command paper regenerates the results tables of Chandra, Larus & Rogers,
// "Where is Time Spent in Message-Passing and Shared-Memory Programs?"
// (ASPLOS 1994), printing each measured quantity next to the paper's
// published value.
//
// Usage:
//
//	paper [-quick] [-table N] [-app mse|gauss|em3d|lcp|ablation]
//
// With no flags it regenerates every table (4-23) at the paper's scale
// (32 processors); -quick runs reduced workloads on 8 processors. -table
// selects one table by its paper number; -app selects one application's
// table group.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/tables"
)

func main() {
	quick := flag.Bool("quick", false, "reduced workloads on 8 processors")
	tableNum := flag.Int("table", 0, "regenerate a single table by paper number (4-23)")
	app := flag.String("app", "", "regenerate one application's tables: mse|gauss|em3d|lcp|ablation")
	flag.Parse()

	sc := tables.Full
	if *quick {
		sc = tables.Quick
	}

	start := time.Now()
	var ts []tables.Table
	switch {
	case *tableNum != 0:
		switch {
		case *tableNum >= 4 && *tableNum <= 7:
			ts = tables.MSE(sc)
		case *tableNum >= 8 && *tableNum <= 11:
			ts = tables.Gauss(sc)
		case *tableNum >= 12 && *tableNum <= 17:
			ts = tables.EM3D(sc)
		case *tableNum >= 18 && *tableNum <= 23:
			ts = tables.LCP(sc)
		default:
			fmt.Fprintf(os.Stderr, "no such paper table: %d (valid: 4-23)\n", *tableNum)
			os.Exit(2)
		}
		t := tables.Find(ts, *tableNum)
		t.Render(os.Stdout)
	case *app != "":
		switch *app {
		case "mse":
			ts = tables.MSE(sc)
		case "gauss":
			ts = tables.Gauss(sc)
		case "em3d":
			ts = tables.EM3D(sc)
		case "lcp":
			ts = tables.LCP(sc)
		case "ablation":
			ts = tables.Ablations(sc)
		default:
			fmt.Fprintf(os.Stderr, "unknown app %q\n", *app)
			os.Exit(2)
		}
		tables.RenderAll(ts, os.Stdout)
	default:
		tables.RenderAll(tables.All(sc), os.Stdout)
	}
	fmt.Printf("regenerated in %v\n", time.Since(start).Round(time.Millisecond))
}
