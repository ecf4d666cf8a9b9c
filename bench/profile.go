package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuProfile samples the benchmark process itself for the traced passes:
// host time by layer with no change to the program under test.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return &cpuProfile{path: path, f: f}, nil
}

// stopAndFold ends sampling and returns each layer's share (percent) of the
// sampled self time. It reads the profile back through `go tool pprof -top`:
// Go's profiles carry their own symbols, so no binary is needed.
func (p *cpuProfile) stopAndFold() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", p.path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(p.path))
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top %s: %w", p.path, err)
	}
	return foldTop(string(out))
}

// foldTop folds the flat% column of `pprof -top` text by layer and rescales
// so the shares sum to 100 (the column is rounded per row).
func foldTop(top string) (map[string]float64, error) {
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
	}
	var total float64
	sc := bufio.NewScanner(strings.NewReader(top))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	inTable := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) >= 2 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		// flat flat% sum% cum cum% symbol [(inline)]
		if len(fields) < 6 || !strings.HasSuffix(fields[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top row %q: %w", sc.Text(), err)
		}
		shares[layerOf(fields[5])] += pct
		total += pct
	}
	if !inTable {
		return nil, fmt.Errorf("pprof -top output has no flat/flat%% header")
	}
	if total > 0 {
		for l := range shares {
			shares[l] *= 100 / total
		}
	}
	return shares, nil
}

// layerOf maps a profile symbol to the layer that owns its package.
func layerOf(symbol string) string {
	pkg := packageOf(symbol)
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		first, _, _ := strings.Cut(rest, "/")
		for _, l := range layers {
			if l == first {
				return l
			}
		}
		return "other" // cost, core, faults, tables
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"),
		strings.HasPrefix(pkg, "internal/runtime/"),
		pkg == "sync", pkg == "sync/atomic", pkg == "internal/sync",
		pkg == "internal/abi", pkg == "internal/cpu", pkg == "internal/goarch":
		return "goruntime"
	case pkg == "container/heap":
		// Only the engine's far-event and run-ahead heaps sift at run time.
		return "sim"
	}
	return "other"
}

// packageOf returns the import path of a symbol such as
// "repro/internal/memsim.(*Cache).Lookup" or "slices.SortFunc[go.shape.int]".
func packageOf(symbol string) string {
	if i := strings.IndexByte(symbol, '['); i >= 0 {
		symbol = symbol[:i]
	}
	slash := strings.LastIndexByte(symbol, '/')
	dot := strings.IndexByte(symbol[slash+1:], '.')
	if dot < 0 {
		return symbol
	}
	return symbol[:slash+1+dot]
}
