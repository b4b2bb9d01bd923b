package main

import (
	"math"
	"slices"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's schema; BENCHMARK.json at the repository root lists
// the same names and units (a test keeps them in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports, on every workload. A
// workload that never issues some op kind reports that kind's metrics from
// its closest op kind instead (see fillStandIns).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_tail_ms", "ms"},
	{"exact_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_tail_ms", "ms"},
	{"rebuild_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
}

// perLayer are the metrics a traced run reports, on every workload; a layer
// the workload never runs reads 0. The traced.* rows repeat the end-to-end
// metrics as measured with tracing on: their difference from an untraced
// run of the same seed is the tracing overhead.
var perLayer = []metricDef{
	{"session.ask_ms", "ms"},
	{"tournament.setup_ms", "ms"},
	{"tournament.t2_ms", "ms"},
	{"tournament.t3_ms", "ms"},
	{"tournament.sample_ms", "ms"},
	{"tournament.finish_ms", "ms"},
	{"tournament.rounds", "count"},
	{"tournament.round_us", "us"},
	{"sim.pull_us", "us"},
	{"exact.flood_ms", "ms"},
	{"exact.count_ms", "ms"},
	{"exact.distribute_ms", "ms"},
	{"exact.tour_ms", "ms"},
	{"exact.rounds", "count"},
	{"http.read_handler_us", "us"},
	{"http.read_outside_us", "us"},
	{"http.write_handler_us", "us"},
	{"http.errors", "count"},
	{"session.fallbacks", "count"},
	{"summary.build_ms", "ms"},
	{"summary.rebuild_frac", "frac"},
	{"summary.gridpoint_ms", "ms"},
	{"summary.gridpoints", "count"},
	{"summary.between_points_ms", "ms"},
	{"summary.recycled_frac", "frac"},
	{"summary.read_ns", "ns"},
	{"heap_retained_mb", "MB"},
	{"shard.build_ms", "ms"},
	{"shard.straggler_ms", "ms"},
	{"shard.builds_per_rebuild", "count"},
	{"shard.epoch_overhead_ms", "ms"},
	{"shard.apply_us", "us"},
	{"shard.wire_us", "us"},
	{"shard.codec_us", "us"},
	{"merge.merge_us", "us"},
	{"unattributed.query_ms", "ms"},
	{"unattributed.exact_ms", "ms"},
	{"unattributed.write_ms", "ms"},
	{"unattributed.rebuild_ms", "ms"},
	{"host.mem_start_ms", "ms"},
	{"host.mem_end_ms", "ms"},
	{"host.alu_start_ms", "ms"},
	{"host.alu_end_ms", "ms"},
	{"traced.setup_s", "s"},
	{"traced.query_p50_ms", "ms"},
	{"traced.query_tail_ms", "ms"},
	{"traced.exact_p50_ms", "ms"},
	{"traced.write_p50_ms", "ms"},
	{"traced.write_tail_ms", "ms"},
	{"traced.rebuild_p50_ms", "ms"},
	{"traced.peak_rss_mb", "MB"},
	{"traced.ops_per_s", "1/s"},
}

// Op kinds: the four kinds of timed operation the workloads issue.
const (
	kindQuery = iota
	kindExact
	kindWrite
	kindRebuild
	numKinds
)

var kindNames = [numKinds]string{"query", "exact", "write", "rebuild"}

// samples is a preallocated buffer of per-op latencies in nanoseconds. add
// never allocates: the workload's op plan fixes the capacity, and no run
// issues more ops than its plan.
type samples struct {
	ns []int64
}

func newSamples(capacity int) *samples { return &samples{ns: make([]int64, 0, capacity)} }

func (s *samples) add(ns int64) {
	if len(s.ns) < cap(s.ns) {
		s.ns = append(s.ns, ns)
	}
}

func (s *samples) count() int { return len(s.ns) }

// quantileMs returns the p-quantile of the samples in milliseconds by the
// nearest-rank rule (the smallest sample with at least p of all samples at
// or below it), or NaN when there are none.
func (s *samples) quantileMs(p float64) float64 {
	if len(s.ns) == 0 {
		return math.NaN()
	}
	sorted := slices.Clone(s.ns)
	slices.Sort(sorted)
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / 1e6
}

func (s *samples) meanMs() float64 {
	if len(s.ns) == 0 {
		return 0
	}
	var sum int64
	for _, v := range s.ns {
		sum += v
	}
	return float64(sum) / float64(len(s.ns)) / 1e6
}

// tailLadder is the set of percentiles a tail metric may sit at: the usual
// service-level percentiles. Finer steps (p99.99 over ~7·10^5 HTTP reads,
// say) put the tail among rare scheduler and GC stalls, where it moved by
// a factor of two between otherwise equal runs.
var tailLadder = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// tailFor returns the highest percentile of the ladder that leaves at least
// ten of n planned samples beyond it. Workloads call it with their planned
// sample count, so the percentile is fixed by the op plan, not by how many
// samples one run happened to collect.
func tailFor(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if (1-p)*float64(n) >= 10 {
			best = p
		}
	}
	return best
}

// median returns the median of xs (NaN when empty); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// report is what one run measured: the op counts, the answer digest, and
// the end-to-end and per-layer values by metric name.
type report struct {
	attempted, failed int
	digest            uint64
	e2e               map[string]float64
	layers            map[string]float64
	notes             []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// standIn says where a workload's end-to-end metric comes from when the
// workload never issues that op kind.
type standIn struct{ metric, from string }

// fillStandIns copies each stand-in's source value into the metric it
// stands in for and notes the substitution.
func (r *report) fillStandIns(subs []standIn) {
	for _, s := range subs {
		r.e2e[s.metric] = r.e2e[s.from]
		r.notes = append(r.notes, s.metric+" stands in as "+s.from)
	}
}

// unattributed records, for op kind k, the mean op latency minus the sum of
// the layer means measured inside it.
func (r *report) unattributed(k int, opMeanMs float64, layerMs ...float64) {
	sum := 0.0
	for _, v := range layerMs {
		sum += v
	}
	r.layers["unattributed."+kindNames[k]+"_ms"] = opMeanMs - sum
}
