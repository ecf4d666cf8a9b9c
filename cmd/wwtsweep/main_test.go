package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMatrixAcceptsStoredSpellings: matrix files written when "step_procs"
// selected the processor form must keep loading and validating — the
// recorded heavy scaling matrix unchanged (validated only: it is hours of
// simulation), and either spelling for every app, blocking programs
// included.
func TestMatrixAcceptsStoredSpellings(t *testing.T) {
	var runs []string
	for _, app := range []string{"mse", "gauss", "em3d", "lcp", "alcp"} {
		for _, spelling := range []string{"", `,"step_procs":true`, `,"step_procs":false`} {
			runs = append(runs, fmt.Sprintf(`{"app":%q,"machine":"mp","procs":4,"size":64%s}`, app, spelling))
		}
	}
	both := filepath.Join(t.TempDir(), "both.json")
	if err := os.WriteFile(both, []byte(`{"runs":[`+strings.Join(runs, ",")+`]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	for path, wantSpelled := range map[string]int{
		"../../experiments/scaling_matrix_heavy.json": 8,
		both: 5,
	} {
		specs, err := loadMatrix(path)
		if err != nil {
			t.Fatal(err)
		}
		spelled := 0
		for i := range specs {
			if err := specs[i].Validate(); err != nil {
				t.Errorf("%s run %d: %v", path, i, err)
			}
			// The field must survive decode and re-encode, not just be skipped.
			if blob, _ := json.Marshal(&specs[i]); strings.Contains(string(blob), `"step_procs":true`) {
				spelled++
			}
		}
		if spelled != wantSpelled {
			t.Errorf("%s: %d runs kept step_procs, want %d", path, spelled, wantSpelled)
		}
	}
}
