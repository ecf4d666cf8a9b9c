package runner

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/snapshot"
)

// This file pins down the canonical identity of a run (Normalized/CacheKey):
// the content-addressed result cache in internal/serve is only sound if
// every pair of specs that provably runs the same simulation shares a key,
// and no pair that runs different simulations does.

// TestNormalizedCollapsesDefaultSpellings: each documented equivalence maps
// to the same normalized form and therefore the same cache key.
func TestNormalizedCollapsesDefaultSpellings(t *testing.T) {
	base := Spec{App: "gauss", Machine: "mp", Procs: 8, Size: 64}
	pairs := []struct {
		name string
		a, b Spec
	}{
		{"lopsided is the default shape",
			base,
			func() Spec { s := base; s.Shape = "lopsided"; return s }()},
		{"rr is the default policy",
			base,
			func() Spec { s := base; s.Policy = "rr"; return s }()},
		{"paper-default cache size spelled out",
			base,
			func() Spec { s := base; s.CacheBytes = cost.Default(8).CacheBytes; return s }()},
		{"shape is ignored on sm",
			Spec{App: "gauss", Machine: "sm", Procs: 8, Size: 64},
			Spec{App: "gauss", Machine: "sm", Procs: 8, Size: 64, Shape: "binary"}},
		{"policy is ignored off em3d-sm",
			Spec{App: "lcp", Machine: "mp", Procs: 8, Size: 64},
			Spec{App: "lcp", Machine: "mp", Procs: 8, Size: 64, Policy: "local"}},
	}
	for _, p := range pairs {
		if err := p.a.Validate(); err != nil {
			t.Fatalf("%s: spec a invalid: %v", p.name, err)
		}
		if err := p.b.Validate(); err != nil {
			t.Fatalf("%s: spec b invalid: %v", p.name, err)
		}
		if !reflect.DeepEqual(p.a.Normalized(), p.b.Normalized()) {
			t.Errorf("%s: normalized forms differ:\n a %+v\n b %+v", p.name, p.a.Normalized(), p.b.Normalized())
		}
		if p.a.CacheKey() != p.b.CacheKey() {
			t.Errorf("%s: keys differ: %s vs %s", p.name, p.a.KeyString(), p.b.KeyString())
		}
	}

	// And the one place policy is real: em3d on sm must NOT collapse it.
	rr := Spec{App: "em3d", Machine: "sm", Procs: 8, Size: 64, Policy: "rr"}
	local := Spec{App: "em3d", Machine: "sm", Procs: 8, Size: 64, Policy: "local"}
	if rr.CacheKey() == local.CacheKey() {
		t.Error("em3d-sm allocation policy was collapsed out of the key")
	}
}

// randSpec draws a valid spec from the full knob space.
func randSpec(rng *rand.Rand) Spec {
	apps := []string{"mse", "gauss", "em3d", "lcp", "alcp"}
	machines := []string{"mp", "sm"}
	shapes := []string{"", "flat", "binary", "lopsided"}
	policies := []string{"", "rr", "local"}
	s := Spec{
		App:     apps[rng.Intn(len(apps))],
		Machine: machines[rng.Intn(len(machines))],
		Procs:   1 + rng.Intn(64),
		Size:    rng.Intn(200),
		Iters:   rng.Intn(8),
	}
	if s.Machine == "mp" {
		s.Shape = shapes[rng.Intn(len(shapes))]
		if rng.Intn(2) == 0 {
			s.Faults = &cost.FaultsConfig{Seed: rng.Uint64(), DropRate: rng.Float64() / 2}
		}
	} else {
		s.SMCheck = rng.Intn(2) == 0
		if rng.Intn(2) == 0 {
			s.SMFaults = &cost.SMFaultsConfig{Seed: rng.Uint64(), NACKRate: rng.Float64() / 2}
		}
	}
	s.Policy = policies[rng.Intn(len(policies))]
	// The shapes Validate requires: a power-of-two procs for LCP-MP's
	// butterfly, N divisible by procs for the row-partitioned apps.
	if s.App == "lcp" && s.Machine == "mp" {
		s.Procs = 1 << rng.Intn(7)
	}
	if s.rows()%s.Procs != 0 {
		s.Size = s.Procs * (1 + rng.Intn(4))
	}
	if rng.Intn(4) == 0 {
		s.CacheBytes = cost.Default(s.Procs).CacheBytes // default spelled out
	}
	s.Flush = s.App == "em3d" && s.Machine == "sm" && rng.Intn(2) == 0
	return s
}

// TestCacheKeyProperties: over a deterministic random corpus, (1)
// normalization is idempotent, (2) a spec and its normalized form share a
// key, (3) normalization survives a JSON round trip, and (4) specs with
// different normalized forms get different keys (FNV collisions over a
// corpus this size would indicate a bug, not bad luck).
func TestCacheKeyProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	byKey := map[uint64]Spec{}
	for i := 0; i < 500; i++ {
		s := randSpec(rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("corpus %d: invalid spec %+v: %v", i, s, err)
		}
		n := s.Normalized()
		if !reflect.DeepEqual(n, n.Normalized()) {
			t.Fatalf("corpus %d: Normalized not idempotent: %+v vs %+v", i, n, n.Normalized())
		}
		if s.CacheKey() != n.CacheKey() {
			t.Fatalf("corpus %d: spec and normalized form disagree on key", i)
		}

		blob, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		var rt Spec
		if err := json.Unmarshal(blob, &rt); err != nil {
			t.Fatal(err)
		}
		if rt.CacheKey() != s.CacheKey() {
			t.Fatalf("corpus %d: JSON round trip changed the key", i)
		}

		if prev, dup := byKey[s.CacheKey()]; dup {
			if !reflect.DeepEqual(prev.Normalized(), n) {
				t.Fatalf("corpus %d: key collision between different runs:\n %+v\n %+v", i, prev, s)
			}
		}
		byKey[s.CacheKey()] = s
	}
}

// TestCacheKeyIgnoresUnknownJSONFields: a client sending extra fields (a
// newer client, a hand-written payload) must land on the same cache entry.
func TestCacheKeyIgnoresUnknownJSONFields(t *testing.T) {
	want := Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 48}
	var got Spec
	payload := `{"app":"gauss","machine":"mp","procs":4,"size":48,
		"comment":"added by a future client","priority":9}`
	if err := json.Unmarshal([]byte(payload), &got); err != nil {
		t.Fatal(err)
	}
	if got.CacheKey() != want.CacheKey() {
		t.Fatalf("unknown JSON fields perturbed the key: %s vs %s", got.KeyString(), want.KeyString())
	}
}

// TestEqualKeysEqualFingerprints closes the loop over a small corpus: any
// two specs that share a cache key produce bit-identical stats
// fingerprints — the property that makes serving one's cached result for
// the other sound — and the hardware-combining twins, which run different
// simulations, do not share one.
func TestEqualKeysEqualFingerprints(t *testing.T) {
	plain := Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 48}
	spelled := Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 48,
		Shape: "lopsided", Policy: "rr", CacheBytes: cost.Default(4).CacheBytes}
	hw, hwSpelled := plain, spelled
	hw.HWCombining, hwSpelled.HWCombining = true, true
	if plain.CacheKey() != spelled.CacheKey() || hw.CacheKey() != hwSpelled.CacheKey() {
		t.Fatalf("setup: default spellings moved the key")
	}

	corpus := []Spec{plain, spelled, hw, hwSpelled}
	fps := make([]uint64, len(corpus))
	byKey := map[uint64]uint64{}
	for i, s := range corpus {
		out, err := Run(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = out.Fingerprint
		if prev, seen := byKey[s.CacheKey()]; seen && prev != fps[i] {
			t.Errorf("key %s answers for fingerprints %#x and %#x", s.KeyString(), prev, fps[i])
		}
		byKey[s.CacheKey()] = fps[i]
	}
	if fps[0] == fps[2] {
		t.Fatalf("setup: hardware combining did not change the run")
	}
}

// hostOnlyFields are the Spec fields that change nothing about the
// simulated run and therefore must not move the cache key.
var hostOnlyFields = map[string]bool{"StepProcs": true}

// TestCacheKeyCoversEverySpecField makes "a Spec field the key forgot"
// (hw_combining once was) impossible to reintroduce: it walks Spec and the
// nested fault configurations by reflection, perturbs one field at a time,
// and fails unless the key moves — or the field is host-only, when it must
// not. The bases between them set every field, so the same walk checks that
// normalization is idempotent everywhere it looks and that a snapshot
// round trip preserves every field.
func TestCacheKeyCoversEverySpecField(t *testing.T) {
	common := Spec{App: "em3d", Procs: 8, CacheBytes: 1 << 20, Shape: "flat", Policy: "local",
		Size: 64, Iters: 5, HWCombining: true, StepProcs: true}
	mp, sm := common, common
	mp.Machine = "mp"
	mp.Faults = &cost.FaultsConfig{Seed: 3, DropRate: 0.5, DupRate: 0.25, CorruptRate: 0.125,
		DelayRate: 0.5, MaxDelay: 400, RTO: 2000, RTOMax: 9000, MaxRetries: 5, Window: 3}
	sm.Machine = "sm"
	sm.SMCheck, sm.SMWatchdog, sm.Flush = true, 1_000_000, true
	sm.SMFaults = &cost.SMFaultsConfig{Seed: 3, NACKRate: 0.5, ReorderRate: 0.25, DelayRate: 0.125,
		MaxDelay: 400, Backoff: 50, BackoffMax: 800, RetryBudget: 9}
	bases := []Spec{mp, sm}

	idempotent := func(s Spec) {
		t.Helper()
		if n := s.Normalized(); !reflect.DeepEqual(n, n.Normalized()) {
			t.Errorf("Normalized not idempotent on %+v", s)
		}
	}
	for _, base := range bases {
		idempotent(base)
		blob, err := json.Marshal(&base)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := snapshot.Decode(snapshot.Encode(&snapshot.Snapshot{Spec: blob, StateHash: snapshot.Hash(nil)}))
		if err != nil {
			t.Fatal(err)
		}
		got, err := SpecFromSnapshot(snap)
		if err != nil {
			t.Fatalf("%s base from snapshot: %v", base.Machine, err)
		}
		if !reflect.DeepEqual(*got, base) {
			t.Errorf("snapshot round trip changed the %s base:\n got %+v\nwant %+v", base.Machine, *got, base)
		}
	}

	// walk visits every leaf of the struct v addresses; path names it.
	var walk func(v reflect.Value, path string, visit func(leaf reflect.Value, path string))
	walk = func(v reflect.Value, path string, visit func(reflect.Value, string)) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			if f.Kind() == reflect.Pointer {
				visit(f, name) // presence itself is part of the run
				if !f.IsNil() {
					walk(f.Elem(), name+".", visit)
				}
				continue
			}
			visit(f, name)
		}
	}
	perturb := func(f reflect.Value) {
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() / 2)
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Pointer:
			f.Set(reflect.Zero(f.Type()))
		default:
			t.Fatalf("no perturbation for kind %s: extend this test", f.Kind())
		}
	}

	set, moved := map[string]bool{}, map[string]bool{}
	for _, base := range bases {
		walk(reflect.ValueOf(&base).Elem(), "", func(leaf reflect.Value, path string) {
			if _, seen := set[path]; !seen {
				set[path] = false
			}
			if leaf.IsZero() {
				return
			}
			set[path] = true
			// Perturb in place, look, and put the value back.
			key := base.CacheKey()
			old := reflect.New(leaf.Type()).Elem()
			old.Set(leaf)
			perturb(leaf)
			idempotent(base)
			if base.CacheKey() != key {
				moved[path] = true
			}
			leaf.Set(old)
		})
	}
	for path, isSet := range set {
		switch {
		case !isSet:
			t.Errorf("no base spec sets %s: set it above so the walk covers it", path)
		case hostOnlyFields[path] && moved[path]:
			t.Errorf("host-only field %s moves the cache key", path)
		case !hostOnlyFields[path] && !moved[path]:
			t.Errorf("CacheKey ignores %s: two different runs would share a cache entry", path)
		}
	}
}

// TestValidateRejects covers every error path, including the bounds that
// protect the sweep service from hostile or fat-fingered HTTP payloads.
func TestValidateRejects(t *testing.T) {
	ok := Spec{App: "gauss", Machine: "mp", Procs: 4}
	if err := ok.Validate(); err != nil {
		t.Fatalf("baseline spec invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"unknown app", func(s *Spec) { s.App = "doom" }},
		{"empty app", func(s *Spec) { s.App = "" }},
		{"unknown machine", func(s *Spec) { s.Machine = "vax" }},
		{"zero procs", func(s *Spec) { s.Procs = 0 }},
		{"negative procs", func(s *Spec) { s.Procs = -4 }},
		{"excessive procs", func(s *Spec) { s.Procs = MaxProcs + 1 }},
		{"negative cache", func(s *Spec) { s.CacheBytes = -1 }},
		{"negative size", func(s *Spec) { s.Size = -8 }},
		{"negative iters", func(s *Spec) { s.Iters = -1 }},
		{"unknown shape", func(s *Spec) { s.Shape = "torus" }},
		{"unknown policy", func(s *Spec) { s.Policy = "numa" }},
		{"network faults on sm", func(s *Spec) { s.Machine = "sm"; s.Faults = &cost.FaultsConfig{DropRate: 0.1} }},
		{"coherence checks on mp", func(s *Spec) { s.SMCheck = true }},
		{"coherence faults on mp", func(s *Spec) { s.SMFaults = &cost.SMFaultsConfig{NACKRate: 0.1} }},
		{"watchdog on mp", func(s *Spec) { s.SMWatchdog = 1000 }},
		{"flush on mp", func(s *Spec) { s.App = "em3d"; s.Flush = true }},
		{"flush off em3d", func(s *Spec) { s.Machine = "sm"; s.Flush = true }},
	}
	for _, c := range cases {
		s := ok
		c.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, s)
		}
	}
}

// TestValidateShapes pins the rejection of shapes the apps cannot partition
// — found here as an ordinary error, not as a panic inside the run: the
// row-partitioned apps need their effective N divisible by procs, and the
// synchronous LCP-MP butterfly needs a power-of-two procs.
func TestValidateShapes(t *testing.T) {
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{App: "lcp", Machine: "mp", Procs: 32}, true},
		{Spec{App: "lcp", Machine: "mp", Procs: 24}, false}, // 4096 % 24 != 0
		{Spec{App: "lcp", Machine: "sm", Procs: 24}, false},
		{Spec{App: "alcp", Machine: "mp", Procs: 24}, false},
		{Spec{App: "gauss", Machine: "mp", Procs: 24}, false}, // 512 % 24 != 0
		{Spec{App: "gauss", Machine: "sm", Procs: 4, Size: 50}, false},
		{Spec{App: "gauss", Machine: "sm", Procs: 24, Size: 48}, true},
		{Spec{App: "lcp", Machine: "mp", Procs: 6, Size: 96}, false}, // divisible, not a power of two
		{Spec{App: "lcp", Machine: "sm", Procs: 6, Size: 96}, true},
		{Spec{App: "alcp", Machine: "mp", Procs: 6, Size: 96}, true},
		{Spec{App: "em3d", Machine: "mp", Procs: 24, Size: 7}, true},
		{Spec{App: "mse", Machine: "sm", Procs: 3, Size: 8}, true},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.ok && err != nil {
			t.Errorf("%+v: unexpected validate error: %v", c.spec, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%+v: Validate accepted an unrunnable shape", c.spec)
		}
		if !c.ok {
			continue
		}
		c.spec.Iters = 1
		if out, err := Run(c.spec, Options{}); err != nil {
			t.Errorf("%+v: validated but did not run: %v", c.spec, err)
		} else if out.Res.Err != nil {
			t.Errorf("%+v: validated but aborted: %v", c.spec, out.Res.Err)
		}
	}
}

// TestValidateProcsBoundary pins the procs cap itself: exactly MaxProcs
// validates (the scaling studies need every proc up to the cap), one past
// it does not.
func TestValidateProcsBoundary(t *testing.T) {
	s := Spec{App: "gauss", Machine: "mp", Procs: MaxProcs, Size: MaxProcs}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate rejected procs=%d (the documented cap): %v", MaxProcs, err)
	}
	s.Procs = MaxProcs + 1
	if err := s.Validate(); err == nil {
		t.Errorf("Validate accepted procs=%d (cap is %d)", s.Procs, MaxProcs)
	}
	if MaxProcs < 1024 {
		t.Errorf("MaxProcs = %d blocks the roadmap's 1024-proc study", MaxProcs)
	}
}

// TestInterruptPreemptsAndResumes exercises the runner-level preemption
// primitive directly: an interrupt fired mid-run captures a snapshot of the
// next quantum boundary in memory and aborts with a typed error, writing no
// file; a second run resuming from that snapshot verifies the replay and
// matches the uninterrupted fingerprint.
func TestInterruptPreemptsAndResumes(t *testing.T) {
	spec := Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 48}
	base, err := Run(spec, Options{})
	if err != nil || base.Res.Err != nil {
		t.Fatalf("baseline: %v / %v", err, base.Res.Err)
	}

	dir := t.TempDir()
	intr := &Interrupt{}
	intr.Fire() // already pending when the run starts: preempt at the first non-zero boundary
	out, err := Run(spec, Options{CheckpointDir: dir, Interrupt: intr})
	if err != nil {
		t.Fatalf("preempted run errored at the harness level: %v", err)
	}
	snap := out.Preempted
	if snap == nil {
		t.Fatalf("run did not preempt: %+v", out)
	}
	perr, ok := out.Res.Err.(*PreemptedError)
	if !ok {
		t.Fatalf("abort error %T (%v), want *PreemptedError", out.Res.Err, out.Res.Err)
	}
	if int64(perr.Cycle) != snap.Cycle || perr.Cycle <= 0 {
		t.Fatalf("preempted at cycle %d (snapshot says %d), want a positive boundary", perr.Cycle, snap.Cycle)
	}
	if len(snap.State) != 0 || snap.StateHash == 0 || len(snap.Stats) == 0 {
		t.Fatalf("preempt snapshot: %d state bytes, hash %#x, %d stats bytes; want the hash and stats only",
			len(snap.State), snap.StateHash, len(snap.Stats))
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) > 0 || len(out.Checkpoints) > 0 {
		t.Fatalf("preemption wrote files: %v %v, checkpoints %v", left, err, out.Checkpoints)
	}

	res, err := Run(spec, Options{Resume: snap})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.Res.Err != nil {
		t.Fatalf("resumed run aborted: %v", res.Res.Err)
	}
	if !res.Verified {
		t.Fatal("resumed run never verified through the checkpoint")
	}
	if res.Fingerprint != base.Fingerprint {
		t.Fatalf("fingerprint %#x after preempt+resume, want %#x", res.Fingerprint, base.Fingerprint)
	}
}

// equivalenceKeys are the cache keys of every EquivalenceMatrix spec as the
// build before Spec.Flush computed them: keys stored in sweep-service WALs
// and result caches must not move when a field is added.
var equivalenceKeys = map[string]string{
	"em3d-mp": "0de3532bf1026738", "em3d-sm": "191114d267b8a7b5",
	"gauss-mp": "6aec257da7aa82de", "gauss-sm": "ce193547cf892bc7",
	"lcp-mp": "b3d04778d64734e1", "lcp-sm": "125050d94ae9dfc8",
	"mse-mp": "692d40b020be9d3c", "mse-sm": "9cd04120fd9d69e5",
	"em3d-mp-faults": "7cffac5d89ed994b", "gauss-sm-faults": "20a2859545ebdd80",
	"em3d-mp-p64": "0dded26673e9af2d", "em3d-sm-p64": "19159597e4d15fc0",
	"gauss-mp-p64": "b461a938ae4affea", "gauss-sm-p64": "178eb902d629a8d3",
	"lcp-mp-p64": "93bc00e7e1909594", "lcp-sm-p64": "792699a0f594989d",
	"mse-mp-p64": "a765fe169b5ccc9c", "mse-sm-p64": "b7f595dc904aba45",
}

// TestPaperSpecsAndStoredKeys: the paper's runs are 15 valid specs with
// distinct cache keys at either scale (a table that reads an existing run
// does not repeat it), and a zero Flush leaves every stored key in place.
func TestPaperSpecsAndStoredKeys(t *testing.T) {
	for _, quick := range []bool{false, true} {
		keys := map[uint64]string{}
		for _, ns := range PaperSpecs(quick) {
			if err := ns.Spec.Validate(); err != nil {
				t.Errorf("quick=%v %s: %v", quick, ns.Name, err)
			}
			if prev, dup := keys[ns.Spec.CacheKey()]; dup {
				t.Errorf("quick=%v: %s repeats %s", quick, ns.Name, prev)
			}
			keys[ns.Spec.CacheKey()] = ns.Name
		}
		if len(keys) != 15 {
			t.Errorf("quick=%v: %d distinct runs, want 15", quick, len(keys))
		}
	}
	for _, ns := range EquivalenceMatrix() {
		if got, want := ns.Spec.KeyString(), equivalenceKeys[ns.Name]; got != want {
			t.Errorf("%s: key %s, stored %s", ns.Name, got, want)
		}
	}
}
