// Command perfbench is gossipq's benchmark. It runs one workload per
// invocation against the program's public entry points, checks every timed
// answer against an exact oracle after the timed window, and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": 650, "failed": 0, "metrics": {"setup_s": {"value": 0.71, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// is traced and the metrics are the per-layer ones. See README.md for the
// workloads and metrics, and run.sh for how to build and run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// runOpts are the arguments every workload takes.
type runOpts struct {
	seed       uint64
	seconds    float64
	trace      bool
	gossipqBin string
}

// deadline bounds a run whose fixed op sequence takes far longer than
// planned (a much slower program or a heavily loaded host): the timed loop
// stops at twice the planned window.
func (o runOpts) deadline() int64 { return now() + int64(2*o.seconds*1e9) }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if runChild(os.Args[1:]) {
		return
	}
	workload := flag.String("workload", "", "workload to run: live, serve or shard-tcp")
	seed := flag.Uint64("seed", 1, "seed of the workload's inputs and op sequence")
	seconds := flag.Float64("seconds", 30, "planned length of the timed window")
	trace := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	bin := flag.String("gossipq", "", "gossipq binary the serve workload runs (run.sh builds it)")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, gossipqBin: *bin}
	res, err := run(*workload, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// runChild serves the child processes the benchmark starts by re-executing
// its own binary: the host probe (-host-probe) and a set-up timed from a
// fresh process (-setup-child). It reports whether args asked for one.
func runChild(args []string) bool {
	if len(args) == 0 {
		return false
	}
	switch args[0] {
	case "-host-probe":
		hostProbeChild()
	case "-setup-child":
		if err := setupChild(args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench set-up child:", err)
			os.Exit(1)
		}
	default:
		return false
	}
	return true
}

// run executes one workload at its default size.
func run(workload string, o runOpts) (*resultOut, error) {
	switch workload {
	case "live":
		return runWorkload(workload, o, func(o runOpts) (*report, error) { return runLive(o, liveDefaults(o.seconds)) })
	case "serve":
		return runWorkload(workload, o, func(o runOpts) (*report, error) { return runServe(o, serveDefaults(o.seconds)) })
	case "shard-tcp":
		return runWorkload(workload, o, func(o runOpts) (*report, error) { return runShardTCP(o, shardDefaults(o.seconds)) })
	}
	return nil, fmt.Errorf("unknown workload %q (want live, serve or shard-tcp)", workload)
}

// runWorkload runs f between two host probes and assembles the result
// object.
func runWorkload(workload string, o runOpts, f func(runOpts) (*report, error)) (*resultOut, error) {
	mem0, alu0, err := hostProbe()
	if err != nil {
		return nil, err
	}
	rep, err := f(o)
	if err != nil {
		return nil, err
	}
	mem1, alu1, err := hostProbe()
	if err != nil {
		return nil, err
	}
	rep.layers["host.mem_start_ms"], rep.layers["host.alu_start_ms"] = mem0, alu0
	rep.layers["host.mem_end_ms"], rep.layers["host.alu_end_ms"] = mem1, alu1
	for _, m := range endToEnd {
		rep.layers["traced."+m.name] = rep.e2e[m.name]
	}
	printSummary(workload, o, rep)
	return assemble(rep, o.trace)
}

// assemble picks the metric set the run reports. A metric that came out NaN
// (its op kind completed no sample) fails the run rather than being printed.
func assemble(rep *report, traced bool) (*resultOut, error) {
	defs, vals := endToEnd, rep.e2e
	if traced {
		defs, vals = perLayer, rep.layers
	}
	out := &resultOut{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no value", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out, nil
}

// printSummary writes a readable account of the run to standard error and
// the answer digest to standard output, ahead of the result line.
func printSummary(workload string, o runOpts, rep *report) {
	fmt.Printf("digest %s seed=%d ops=%d %016x\n", workload, o.seed, rep.attempted, rep.digest)
	fmt.Fprintf(os.Stderr, "%s seed=%d trace=%v: attempted=%d failed=%d\n", workload, o.seed, o.trace, rep.attempted, rep.failed)
	for _, m := range endToEnd {
		fmt.Fprintf(os.Stderr, "  %-26s %12.6g %s\n", m.name, rep.e2e[m.name], m.unit)
	}
	names := make([]string, 0, len(rep.layers))
	for k := range rep.layers {
		names = append(names, k)
	}
	sort.Strings(names)
	if o.trace {
		for _, k := range names {
			fmt.Fprintf(os.Stderr, "  %-26s %12.6g\n", k, rep.layers[k])
		}
	} else {
		for _, k := range names {
			if strings.HasPrefix(k, "host.") {
				fmt.Fprintf(os.Stderr, "  %-26s %12.6g ms\n", k, rep.layers[k])
			}
		}
	}
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "  note:", n)
	}
}
