package memsim_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/memsim"
	"repro/internal/runner"
)

// TestBoundaryImagesOnGoldenSpecs runs the golden specs of every app that
// reads across nodes through a BoundaryVec with the image check armed
// (CheckBoundaryImages), and requires each run's golden fingerprint and
// answer line.
func TestBoundaryImagesOnGoldenSpecs(t *testing.T) {
	raw, err := os.ReadFile("../runner/testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Name        string
		Spec        runner.Spec
		Fingerprint string
		AppLine     string `json:"app_line"`
	}
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"lcp-sm": true, "alcp-sm": true, "mse-sm": true}
	for _, row := range rows {
		if !want[row.Name] {
			continue
		}
		delete(want, row.Name)
		checked := memsim.CheckBoundaryImages(t)
		out, err := runner.Run(row.Spec, runner.Options{})
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		if out.Res.Err != nil {
			t.Fatalf("%s aborted: %v", row.Name, out.Res.Err)
		}
		if got := fmt.Sprintf("%#x", out.Fingerprint); got != row.Fingerprint {
			t.Errorf("%s: fingerprint %s, golden %s", row.Name, got, row.Fingerprint)
		}
		if out.AppLine != row.AppLine {
			t.Errorf("%s: %q, golden %q", row.Name, out.AppLine, row.AppLine)
		}
		if checked() == 0 {
			t.Errorf("%s: no boundary image was published", row.Name)
		}
		t.Logf("%s: %d publishes checked", row.Name, checked())
	}
	for name := range want {
		t.Errorf("golden.json has no %s row", name)
	}
}
