package runner

import (
	"encoding/json"
	"math/rand"
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

// TestEqualKeysEqualFingerprints closes the loop: two differently-spelled
// specs with the same cache key produce bit-identical stats fingerprints,
// which is the property that makes serving one's cached result for the
// other sound.
func TestEqualKeysEqualFingerprints(t *testing.T) {
	a := Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 48}
	b := Spec{App: "gauss", Machine: "mp", Procs: 4, Size: 48,
		Shape: "lopsided", Policy: "rr", CacheBytes: cost.Default(4).CacheBytes}
	if a.CacheKey() != b.CacheKey() {
		t.Fatalf("setup: keys differ: %s vs %s", a.KeyString(), b.KeyString())
	}
	oa, err := Run(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ob, err := Run(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if oa.Fingerprint != ob.Fingerprint {
		t.Fatalf("equal keys, different fingerprints: %#x vs %#x", oa.Fingerprint, ob.Fingerprint)
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
		if out, err := Run(c.spec, Options{Workers: 1}); err != nil {
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
// primitive directly: an interrupt fired mid-run checkpoints at the next
// quantum boundary and aborts with a typed error; a second run resuming
// from that checkpoint verifies the replay and matches the uninterrupted
// fingerprint.
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
	if !out.Preempted || out.PreemptPath == "" {
		t.Fatalf("run did not preempt: %+v", out)
	}
	perr, ok := out.Res.Err.(*PreemptedError)
	if !ok {
		t.Fatalf("abort error %T (%v), want *PreemptedError", out.Res.Err, out.Res.Err)
	}
	if perr.Cycle != out.PreemptedAt || perr.Cycle <= 0 {
		t.Fatalf("preempted at cycle %d (outcome says %d), want a positive boundary", perr.Cycle, out.PreemptedAt)
	}

	snap, err := snapshot.ReadFile(out.PreemptPath)
	if err != nil {
		t.Fatalf("reading preempt checkpoint: %v", err)
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
