package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/runner"
	"repro/internal/serve"
)

type svcKind int

const (
	svcWrite svcKind = iota // cold submits + one batch, fresh dir per pass
	svcRead                 // cache hits on a populated dir + drain/reopen/resume
)

// Job counts. A pass must stay near two seconds so a run fits enough of
// them for the latency tails: cold and hit samples pool across passes.
const (
	svcJobs      = 40 // distinct specs per phase
	svcHitRounds = 2  // svc-read resubmits its specs this many times per pass
)

// svcTemplates spans the apps, both machines and 2-8 processors at sizes
// that simulate in 2-25 ms, so a job's latency is mostly construction, WAL
// and cache I/O, not simulation.
var svcTemplates = func() []runner.Spec {
	var ts []runner.Spec
	for _, procs := range []int{2, 4, 8} {
		for _, mach := range []string{"mp", "sm"} {
			ts = append(ts,
				runner.Spec{App: "em3d", Machine: mach, Procs: procs, Size: 32, Iters: 3},
				runner.Spec{App: "gauss", Machine: mach, Procs: procs, Size: 64},
				runner.Spec{App: "lcp", Machine: mach, Procs: procs, Size: 256, Iters: 4},
				runner.Spec{App: "alcp", Machine: mach, Procs: procs, Size: 256, Iters: 2},
				runner.Spec{App: "mse", Machine: mach, Procs: procs, Size: 16, Iters: 2},
			)
		}
	}
	return ts
}()

// svcCacheBytes are the simulated cache sizes the seed draws from. These
// problems fit in the smallest, so the choice changes a spec's identity
// (its cache key, hence what the service has and has not seen) but barely
// its host work: the medians must not depend on the seed.
var svcCacheBytes = []int{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}

// genSpecs returns n distinct small specs: spec i is template i mod T grown
// by i div T size steps (a step of 8 keeps rows divisible by every
// processor count), with a cache size and a position drawn from seed.
func genSpecs(seed int64, n int) []runner.Spec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]runner.Spec, n)
	for i := range specs {
		s := svcTemplates[i%len(svcTemplates)]
		s.Size += 8 * (i / len(svcTemplates))
		s.CacheBytes = svcCacheBytes[rng.Intn(len(svcCacheBytes))]
		specs[i] = s
	}
	rng.Shuffle(n, func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// restartSpec is the job the restart phase drains and resumes: long enough
// (a third of a second) that the drain always finds it running.
var restartSpec = runner.Spec{App: "gauss", Machine: "sm", Procs: 32, Size: 256}

// svcRef is the direct run a job's result is checked against.
type svcRef struct {
	out   *runner.Outcome
	procs int
}

type svcWorkload struct {
	e    *env
	kind svcKind

	specs []runner.Spec     // svc-write: [0:n) cold, [n:2n) batch; svc-read: [0:n)
	ref   map[string]svcRef // direct runner.Run of every spec, by cache key

	restart     runner.Spec
	restartWall time.Duration // direct-run wall time of restart, sizes the drain delay

	main  *svcServer // svc-read: the populated server the hit phase talks to
	dirNo int
}

func newSvcWorkload(e *env, kind svcKind) *svcWorkload {
	w := &svcWorkload{e: e, kind: kind, restart: restartSpec, ref: make(map[string]svcRef)}
	n := svcJobs
	if e.smoke {
		n = 4
		w.restart.Size = 128
	}
	if kind == svcWrite {
		w.specs = genSpecs(e.seed, 2*n)
	} else {
		w.specs = genSpecs(e.seed, n)
	}
	w.reference()
	return w
}

// reference runs every spec directly, once: the service must return the
// same fingerprint for each, and the simulated totals of a pass are the
// totals of these outcomes.
func (w *svcWorkload) reference() {
	all := w.specs
	if w.kind == svcRead {
		all = append(append([]runner.Spec(nil), w.specs...), w.restart)
	}
	for _, s := range all {
		t0 := time.Now()
		out, err := runner.Run(s, runOpts)
		if s == w.restart {
			w.restartWall = time.Since(t0)
		}
		name := fmt.Sprintf("%s/%s p%d size%d", s.App, s.Machine, s.Procs, s.Size)
		if checkOutcome(&w.e.chk, name+" (direct)", s, out, err) {
			_, dup := w.ref[s.KeyString()]
			w.e.chk.check(!dup, "%s: cache key %s generated twice", name, s.KeyString())
			w.ref[s.KeyString()] = svcRef{out, s.Procs}
		}
	}
}

func (w *svcWorkload) freshDir() string {
	w.dirNo++
	return filepath.Join(w.e.workdir, fmt.Sprintf("data-%d", w.dirNo))
}

func (w *svcWorkload) setup() error {
	if w.kind == svcWrite {
		// The warm-up is a full pass: it faults in the HTTP stack, the WAL
		// and cache code paths and the filesystem's metadata caches.
		w.pass()
		return nil
	}
	w.close()
	srv, err := openServer(w.freshDir())
	if err != nil {
		return err
	}
	w.main = srv
	// Populate the cache: the timed hit phase resubmits exactly these.
	jobs := w.batch(srv, w.specs)
	for _, j := range jobs {
		w.e.chk.check(!j.Cached, "populate: job %s was served from an empty cache", j.ID)
	}
	w.pass()
	return nil
}

func (w *svcWorkload) pass() passStats {
	var ps passStats
	runtime.GC() // not timed: peak RSS should not depend on where the collector stood
	done := w.e.tr.begin("pass")
	if w.kind == svcWrite {
		w.passWrite(&ps)
	} else {
		w.passRead(&ps)
	}
	ps.wall = done()
	return ps
}

// passWrite: a fresh data dir; each cold spec submitted alone and polled to
// done, then the batch specs in one submit.
func (w *svcWorkload) passWrite(ps *passStats) {
	n := len(w.specs) / 2
	open := w.e.tr.begin("open")
	srv, err := openServer(w.freshDir())
	open()
	if !w.e.chk.check(err == nil, "serve.New: %v", err) {
		return
	}
	cold := w.e.tr.begin("phase.cold")
	for _, s := range w.specs[:n] {
		js, lat, ack := w.one(srv, s)
		w.e.sample("cold", millis(lat))
		w.e.sample("overhead", millis(lat-ack)-float64(js.WallMS))
		w.e.chk.check(!js.Cached, "cold job %s was a cache hit", js.ID)
		w.account(ps, js)
	}
	cold()
	bdone := w.e.tr.begin("phase.batch")
	jobs := w.batch(srv, w.specs[n:])
	if d := bdone(); len(jobs) > 0 {
		w.e.sample("batch_jobs_per_s", float64(len(jobs))/d.Seconds())
	}
	for _, js := range jobs {
		w.e.chk.check(!js.Cached, "batch job %s was a cache hit", js.ID)
		w.account(ps, js)
	}
	shut := w.e.tr.begin("close")
	srv.shutdown(&w.e.chk)
	shut()
	os.RemoveAll(srv.dir)
}

// passRead: every populated spec resubmitted (all served from the cache),
// then one job drained mid-run, the server reopened on the same dir, and
// the job resumed through its checkpoint.
func (w *svcWorkload) passRead(ps *passStats) {
	hit := w.e.tr.begin("phase.hit")
	for r := 0; r < svcHitRounds; r++ {
		for _, s := range w.specs {
			js, lat, _ := w.one(w.main, s)
			w.e.sample("hit", millis(lat))
			w.e.chk.check(js.Cached, "resubmitted job %s was not served from the cache", js.ID)
			w.account(ps, js)
		}
	}
	hit()

	rdone := w.e.tr.begin("phase.restart")
	defer rdone()
	dir := w.freshDir()
	defer os.RemoveAll(dir)
	srv, err := openServer(dir)
	if !w.e.chk.check(err == nil, "serve.New: %v", err) {
		return
	}
	sub := w.e.tr.begin("submit")
	resp, err := srv.submit([]runner.Spec{w.restart})
	sub()
	if !w.e.chk.check(err == nil && len(resp.Jobs) == 1, "restart submit: %v", err) {
		srv.shutdown(&w.e.chk)
		return
	}
	id := resp.Jobs[0].ID
	// Drain 40% of the way through the job's measured run time, so the
	// checkpoint lands mid-run however fast this host is.
	time.Sleep(w.restartWall * 2 / 5)
	t0 := time.Now()
	drain := w.e.tr.begin("drain")
	err = srv.s.Drain(30 * time.Second)
	w.e.sample("drain", millis(drain()))
	w.e.chk.check(err == nil, "drain: %v", err)
	cl := w.e.tr.begin("close")
	srv.ts.Close()
	w.e.chk.check(srv.s.Close() == nil, "close after drain failed")
	cl()
	re := w.e.tr.begin("reopen")
	srv2, err := openServer(dir)
	w.e.sample("recover", millis(re()))
	if !w.e.chk.check(err == nil, "reopen: %v", err) {
		return
	}
	wait := w.e.tr.begin("wait")
	js := w.waitJob(srv2, id)
	wait()
	w.e.sample("restart", time.Since(t0).Seconds())
	w.e.chk.check(js.ResumedFrom > 0, "restarted job %s did not resume from a checkpoint (resumed_from=%d)", id, js.ResumedFrom)
	w.e.chk.check(!js.Cached, "restarted job %s was a cache hit", id)
	w.account(ps, js)
	srv2.shutdown(&w.e.chk)
}

// account checks a finished job against its direct run and adds its
// simulated work to the pass.
func (w *svcWorkload) account(ps *passStats, js serve.JobStatus) {
	ref, known := w.ref[js.Key]
	if !w.e.chk.check(js.State == serve.StateDone && known, "job %s: state %q fail %q %q", js.ID, js.State, js.FailKind, js.FailError) {
		return
	}
	want := fmt.Sprintf("%#x", ref.out.Fingerprint) // the API's rendering
	w.e.chk.check(js.Fingerprint == want, "job %s: fingerprint %s, direct run %s", js.ID, js.Fingerprint, want)
	ps.totals.add(ref.out, ref.procs)
}

// one submits a single spec and polls it to a terminal state; lat is
// submit-to-done, ack the part of it the submit call took.
func (w *svcWorkload) one(srv *svcServer, s runner.Spec) (js serve.JobStatus, lat, ack time.Duration) {
	t0 := time.Now()
	sub := w.e.tr.begin("submit")
	resp, err := srv.submit([]runner.Spec{s})
	ack = sub()
	w.e.sample("submit_ack", millis(ack))
	if !w.e.chk.check(err == nil && len(resp.Jobs) == 1, "submit: %v", err) {
		return js, 0, 0
	}
	wait := w.e.tr.begin("wait")
	js = w.waitJob(srv, resp.Jobs[0].ID)
	wait()
	return js, time.Since(t0), ack
}

// pollEvery is the client's pause between status polls: short against the
// 10 ms idle poll of the service's own worker, long enough that the client
// does not compete with the job for the second core.
const pollEvery = time.Millisecond

func (w *svcWorkload) waitJob(srv *svcServer, id string) serve.JobStatus {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var js serve.JobStatus
		poll := w.e.tr.begin("poll")
		err := srv.get("/v1/jobs/"+id, &js)
		w.e.sample("poll", millis(poll()))
		if err != nil || js.State == serve.StateDone || js.State == serve.StateFailed || time.Now().After(deadline) {
			w.e.chk.check(err == nil, "poll job %s: %v", id, err)
			return js
		}
		time.Sleep(pollEvery)
	}
}

// batch submits specs as one batch and polls the batch to completion.
func (w *svcWorkload) batch(srv *svcServer, specs []runner.Spec) []serve.JobStatus {
	sub := w.e.tr.begin("submit")
	resp, err := srv.submit(specs)
	sub()
	if !w.e.chk.check(err == nil, "batch submit: %v", err) {
		return nil
	}
	wait := w.e.tr.begin("wait")
	defer wait()
	deadline := time.Now().Add(120 * time.Second)
	for {
		var bs serve.BatchStatus
		err := srv.get("/v1/batches/"+resp.Batch, &bs)
		if err != nil || bs.Done || time.Now().After(deadline) {
			w.e.chk.check(err == nil && bs.Done, "batch %s did not finish: %v", resp.Batch, err)
			return bs.Jobs
		}
		time.Sleep(5 * pollEvery)
	}
}

func (w *svcWorkload) close() {
	if w.main != nil {
		w.main.shutdown(&w.e.chk)
		os.RemoveAll(w.main.dir)
		w.main = nil
	}
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- an in-process server behind a real HTTP listener ---

type svcServer struct {
	s   *serve.Server
	ts  *httptest.Server
	dir string
}

func openServer(dir string) (*svcServer, error) {
	s, err := serve.New(serve.Config{Dir: dir, Jobs: 1, RunWorkers: 1})
	if err != nil {
		return nil, err
	}
	s.Start()
	return &svcServer{s: s, ts: httptest.NewServer(s.Handler()), dir: dir}, nil
}

func (sv *svcServer) shutdown(chk *checker) {
	sv.ts.Close()
	chk.check(sv.s.Drain(30*time.Second) == nil, "drain at shutdown timed out")
	chk.check(sv.s.Close() == nil, "WAL close failed")
}

func (sv *svcServer) submit(specs []runner.Spec) (*serve.SubmitResponse, error) {
	body, err := json.Marshal(serve.SubmitRequest{Runs: specs})
	if err != nil {
		return nil, err
	}
	resp, err := sv.ts.Client().Post(sv.ts.URL+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var out serve.SubmitResponse
	if err := decodeResponse(resp, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (sv *svcServer) get(path string, v any) error {
	resp, err := sv.ts.Client().Get(sv.ts.URL + path)
	if err != nil {
		return err
	}
	return decodeResponse(resp, v)
}

func decodeResponse(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
