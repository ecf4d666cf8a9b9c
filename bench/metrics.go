package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported number. BENCHMARK.json at the repo root lists
// the same names, units, directions and bounds; TestManifestMatchesTable
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Exact marks a simulated statistic or a count: on a deterministic
	// simulator it repeats bit for bit, so any movement under a change that
	// claims to be host-side only is a failure, not a result.
	Exact bool
}

// endToEnd is what a user of the simulator or the sweep service sees. Every
// workload reports all four, untraced. The bounds are the widest the
// contract allows because the reference host is that noisy: the same
// deterministic 0.3 s run repeats anywhere between 0.30 and 0.56 s there,
// and ten-run quartile spreads of wall_s reach 5-16% (README, "Noise").
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "proc_mcyc_per_host_s", Unit: "Mcyc/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// layers are this repository's module names; they prefix every per-layer
// metric and name the rows of the folded CPU profile. "goruntime" is the Go
// scheduler, allocator and GC (where coroutine switching lands); "other" is
// everything else (encoding/json, net/http, syscalls, the benchmark itself).
var layers = []string{
	"sim", "memsim", "coherence", "ni", "am", "cmmd", "parmacs", "stats",
	"machine", "apps", "runner", "snapshot", "serve", "vfs", "goruntime", "other",
}

// runNames are the specs of the three simulator workloads; each has an
// apps.<name>.wall_s metric fed by its run span.
var runNames = []string{
	"em3d-mp", "lcp-mp", "alcp-mp", "gauss-mp",
	"em3d-sm", "lcp-sm", "alcp-sm", "gauss-sm",
	"lcp-mp-p1024", "lcp-sm-p1024", "em3d-sm-p1024", "em3d-mp-p1024",
}

// perLayer is reported by the traced run of every workload; a metric whose
// layer the workload never enters reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	exact := func(name, unit string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "lower", Exact: true}
	}
	defs := []metricDef{
		// Probes: fixed operation counts against each layer's public API.
		lo("sim.switch_step_p1024_ns", "ns"),
		lo("sim.switch_coroutine_p32_ns", "ns"),
		lo("sim.switch_coroutine_p1024_ns", "ns"),
		lo("sim.event_near_ns", "ns"),
		lo("sim.event_far_ns", "ns"),
		lo("sim.barrier_p32_ns", "ns"),
		lo("sim.pool_w2_ratio", "ratio"),
		lo("memsim.tlb_hit_ns", "ns"),
		lo("memsim.cache_lookup_ns", "ns"),
		lo("memsim.read_hit_ns", "ns"),
		lo("memsim.read_miss_ns", "ns"),
		lo("memsim.readrange_block_ns", "ns"),
		lo("coherence.remote_miss_ns", "ns"),
		exact("coherence.remote_miss_simcyc", "simcyc"),
		lo("coherence.upgrade_fanout8_ns", "ns"),
		lo("coherence.hot_home_p32_ns", "ns"),
		exact("coherence.hot_home_p32_simcyc", "simcyc"),
		lo("ni.send_recv_ns", "ns"),
		lo("am.roundtrip_ns", "ns"),
		exact("am.roundtrip_simcyc", "simcyc"),
		lo("am.reliable_roundtrip_ns", "ns"),
		lo("cmmd.block_1k_ns", "ns"),
		exact("cmmd.block_1k_simcyc", "simcyc"),
		lo("cmmd.reduce_p32_ns", "ns"),
		lo("cmmd.bcast_p32_ns", "ns"),
		lo("parmacs.lock_handoff_ns", "ns"),
		exact("parmacs.lock_handoff_simcyc", "simcyc"),
		lo("parmacs.barrier_p32_ns", "ns"),
		lo("parmacs.reduce_p32_ns", "ns"),
		lo("stats.charge_ns", "ns"),
		lo("stats.flush_ns", "ns"),
		lo("stats.summarize_p1024_us", "us"),
		lo("machine.build_mp_p1024_ms", "ms"),
		lo("machine.build_sm_p1024_ms", "ms"),
		lo("machine.build_allocs_p1024", "count"),
		lo("runner.cachekey_ns", "ns"),
		lo("runner.checkpoint_overhead_pct", "%"),
		lo("runner.resume_verify_ratio", "ratio"),
		lo("runner.form_ratio_p1024", "ratio"),
		hi("snapshot.encode_mb_per_s", "MB/s"),
		hi("snapshot.decode_mb_per_s", "MB/s"),
		lo("snapshot.atomic_write_ms", "ms"),
		lo("serve.wal_append1_ms", "ms"),
		lo("serve.wal_append120_ms", "ms"),
		lo("serve.wal_open_1k_ms", "ms"),
		lo("serve.wal_compact_ms", "ms"),
		lo("serve.cache_put_ms", "ms"),
		lo("serve.cache_get_ms", "ms"),
		lo("vfs.os_fsync_ms", "ms"),
		lo("vfs.os_rename_ms", "ms"),
	}
	// Traced passes: benchmark-side spans around each call into a layer.
	for _, n := range runNames {
		defs = append(defs, lo("apps."+n+".wall_s", "s"))
	}
	defs = append(defs,
		lo("serve.submit_ack_ms", "ms"),
		lo("serve.poll_ms", "ms"),
		lo("serve.overhead_ms", "ms"),
		lo("serve.drain_ms", "ms"),
		lo("serve.recover_ms", "ms"),
		lo("serve.cold_p50_ms", "ms"),
		lo("serve.cold_tail_ms", "ms"),
		lo("serve.hit_p50_ms", "ms"),
		lo("serve.hit_tail_ms", "ms"),
		hi("serve.batch_jobs_per_s", "1/s"),
		lo("serve.restart_s", "s"),
	)
	// CPU profile of the traced passes, self time folded by package.
	for _, l := range layers {
		defs = append(defs, lo(l+".host_share", "%"))
	}
	// Counts and the paper's taxonomy, read from Result.Summary at each run.
	defs = append(defs,
		exact("runner.sim_events", "count"),
		lo("runner.host_ns_per_event", "ns"),
		exact("runner.sim_elapsed_mcyc", "Mcyc"),
		exact("ni.packets", "count"),
		exact("am.active_messages", "count"),
		exact("cmmd.channel_writes", "count"),
		exact("cmmd.data_mb", "MB"),
		exact("memsim.local_misses", "count"),
		exact("memsim.tlb_misses", "count"),
		exact("coherence.shared_misses_local", "count"),
		exact("coherence.shared_misses_remote", "count"),
		exact("coherence.write_faults", "count"),
		exact("apps.compute_cyc_share", "%"),
		exact("memsim.miss_cyc_share", "%"),
		exact("cmmd.comm_cyc_share", "%"),
		exact("parmacs.sync_cyc_share", "%"),
		exact("apps.sim_err_pct", "%"),
		lo("runner.allocs_per_pass", "count"),
		lo("runner.alloc_mb_per_pass", "MB"),
		lo("runner.gc_pause_ms", "ms"),
		lo("trace_overhead_pct", "%"),
	)
	return defs
}

// metricSet collects one run's values under the names of one table.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
}

// set records a value; a name missing from the table is a bug in the
// benchmark, so it panics rather than silently reporting an unlisted metric.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = v
			return
		}
	}
	panic(fmt.Sprintf("wwtbench: metric %q is not in the table", name))
}

// contractJSON renders every metric of the table (unset ones as 0) in the
// {"name": {"value": v, "unit": u}} form the result line carries.
func (m *metricSet) contractJSON() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = metricValue{Value: m.values[d.Name], Unit: d.Unit}
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// --- small statistics ---

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100); the
// 50th is the median, so a tail that falls back to p50 equals the median.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	if p == 50 {
		return median(v)
	}
	s := sorted(v)
	rank := int(float64(len(s))*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// tailPercentiles are the candidates for "the tail", highest first.
var tailPercentiles = []float64{99, 95, 90, 75}

// pickTail returns the highest candidate percentile with at least ten
// samples beyond it, or 50 when even p75 has fewer: a percentile resting on
// a handful of samples is noise reported as a number.
func pickTail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// tailOf returns the tail percentile pickTail allows for v and its value.
func tailOf(v []float64) (p, value float64) {
	p = pickTail(len(v))
	return p, percentile(v, p)
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles placed the way Python's
// statistics.quantiles(values, n=4) places them (exclusive method).
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sorted(v)
	q := func(k int) float64 { // k-th quartile, k in 1..3
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}
