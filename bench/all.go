package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// resultFile is what the all-workloads report writes and -compare reads.
type resultFile struct {
	Schema    string                  `json:"schema"`
	Host      hostInfo                `json:"host"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Smoke     bool                    `json:"smoke,omitempty"`
	Workloads map[string]*workloadRun `json:"workloads"`
}

// workloadRun holds one workload's runs: several untraced (one per seed)
// for the end-to-end metrics and their spread, one traced for the layers.
type workloadRun struct {
	Why      string       `json:"why"`
	Untraced []*seededRun `json:"untraced"`
	Traced   *seededRun   `json:"traced"`
}

type seededRun struct {
	Seed int64 `json:"seed"`
	result
}

const resultSchema = "wwtbench-result-v1"

// runAll runs each selected workload in its own sequential subprocess —
// `runs` untraced runs on consecutive seeds, then one traced run — so peak
// RSS and heap state never leak between workloads. Each child prints its
// own report on stderr; this process collects the result lines.
func runAll(o options, selected string, runs int) int {
	var defs []workloadDef
	if selected == "" {
		defs = workloadDefs
	} else {
		for _, name := range strings.Split(selected, ",") {
			d, ok := findWorkload(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "wwtbench: unknown workload %q\n", name)
				return 2
			}
			defs = append(defs, d)
		}
	}
	if runs < 1 {
		runs = 1
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "wwtbench:", err)
		return 1
	}
	rf := &resultFile{Schema: resultSchema, Host: readHost(o.workdir), Seed: o.seed, Seconds: o.seconds,
		Smoke: o.smoke, Workloads: make(map[string]*workloadRun)}
	failed := false
	for _, d := range defs {
		wr := &workloadRun{Why: d.Why}
		rf.Workloads[d.Name] = wr
		for i := 0; i < runs; i++ {
			r, err := runChild(o, d.Name, o.seed+int64(i), false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wwtbench: %s: %v\n", d.Name, err)
				failed = true
				continue
			}
			failed = failed || !r.Correct
			wr.Untraced = append(wr.Untraced, r)
		}
		r, err := runChild(o, d.Name, o.seed, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wwtbench: %s (traced): %v\n", d.Name, err)
			failed = true
			continue
		}
		failed = failed || !r.Correct
		wr.Traced = r
	}
	path := filepath.Join(o.out, "result.json")
	b, _ := json.MarshalIndent(rf, "", " ")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "wwtbench:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "\nwrote %s; traces are %s/<workload>.trace.json\n", path, o.out)
	if failed {
		fmt.Fprintln(os.Stderr, "wwtbench: FAILED: at least one run reported failed operations")
		return 1
	}
	return 0
}

// runChild re-executes this binary for one run and parses the result line,
// the last line of its standard output.
func runChild(o options, workload string, seed int64, trace bool) (*seededRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	args := []string{
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(o.seconds),
		"--trace", traceArg, "-out", o.out, "-workdir", o.workdir,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	r := &seededRun{Seed: seed}
	if err := json.Unmarshal(lines[len(lines)-1], &r.result); err != nil {
		return nil, fmt.Errorf("no result line (%v): %w", runErr, err)
	}
	return r, nil
}

// childEnv marks a re-executed process. The test binary checks it in
// TestMain so the smoke test can re-execute itself as wwtbench.
const childEnv = "WWTBENCH_CHILD"
