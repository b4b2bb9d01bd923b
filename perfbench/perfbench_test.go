package main

import (
	"encoding/json"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"

	"gossipq/internal/dist"
	"gossipq/internal/stats"
	"gossipq/internal/xrand"
)

// TestMain lets the test binary double as the benchmark's child processes
// (the host probe and the set-up children), since the benchmark starts them
// by re-executing the running binary.
func TestMain(m *testing.M) {
	if runChild(os.Args[1:]) {
		os.Exit(0)
	}
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// Tiny workload shapes: every code path of the full-size runs, in seconds.
func tinyLive() liveConfig {
	return liveConfig{n: 1 << 12, eps: 0.2, perCycle: 8, cycles: 2, setupReps: 2}
}

func tinyServe() serveConfig {
	return serveConfig{n: 1 << 12, summaryEps: 0.1, eps: 0.1, reads: 8, burst: 4, periods: 2, setupReps: 2}
}

func tinyShard() shardConfig {
	return shardConfig{n: 1 << 13, shards: 2, eps: 0.2, updates: 8, reads: 64, periods: 2, setupReps: 2}
}

var (
	binOnce sync.Once
	binDir  string
	binPath string
	binErr  error
)

// gossipqBin builds the gossipq binary once per test run, into a temporary
// directory TestMain removes.
func gossipqBin(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		binDir, binErr = os.MkdirTemp("", "perfbench-bin")
		if binErr != nil {
			return
		}
		binPath = filepath.Join(binDir, "gossipq")
		out, err := exec.Command("go", "build", "-o", binPath, "gossipq/cmd/gossipq").CombinedOutput()
		if err != nil {
			binErr = errors.New(string(out))
		}
	})
	if binErr != nil {
		t.Fatalf("building gossipq: %v", binErr)
	}
	return binPath
}

func tinyOpts(t *testing.T, seed uint64, trace bool) runOpts {
	return runOpts{seed: seed, seconds: 30, trace: trace, gossipqBin: gossipqBin(t)}
}

func tinyWorkloads() map[string]func(runOpts) (*report, error) {
	return map[string]func(runOpts) (*report, error){
		"live":      func(o runOpts) (*report, error) { return runLive(o, tinyLive()) },
		"serve":     func(o runOpts) (*report, error) { return runServe(o, tinyServe()) },
		"shard-tcp": func(o runOpts) (*report, error) { return runShardTCP(o, tinyShard()) },
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables in step with
// the BENCHMARK.json the benchmark is run by.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: %d metrics in the code, %d in BENCHMARK.json", what, len(defs), len(got))
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s %d: code %s [%s], BENCHMARK.json %s [%s]", what, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	wl := tinyWorkloads()
	for _, w := range spec.Workloads {
		if wl[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// TestEveryMetricEmitted runs every workload untraced and traced at tiny
// sizes: each result must be correct, name every metric of its set with
// its unit, and report non-zero end-to-end values.
func TestEveryMetricEmitted(t *testing.T) {
	for name, f := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(name, tinyOpts(t, 7, traced), f)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, traced, d.name, m.Unit, d.unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

// TestDigestRepeats: one seed does identical work, a seed with another plan
// does not.
func TestDigestRepeats(t *testing.T) {
	digest := func(seed uint64) uint64 {
		rep, err := runLive(runOpts{seed: seed, seconds: 30}, tinyLive())
		if err != nil {
			t.Fatal(err)
		}
		return rep.digest
	}
	// The live population is fixed, and a seed picks one of len(livePhis)
	// orders of the approximate queries' φ: find a seed whose order differs
	// from seed 3's.
	other := uint64(4)
	for slices.Equal(livePlan(tinyLive(), other), livePlan(tinyLive(), 3)) {
		other++
	}
	a, b, c := digest(3), digest(3), digest(other)
	if a != b {
		t.Errorf("seed 3 digests differ: %x vs %x", a, b)
	}
	if a == c {
		t.Errorf("seeds 3 and %d share digest %x", other, a)
	}
}

// TestOracleMatchesStats replays random churn on the Fenwick oracle and
// compares every answer with internal/stats over a fresh copy.
func TestOracleMatchesStats(t *testing.T) {
	r := xrand.New(11)
	values := dist.Generate(dist.DuplicateHeavy, 500, 5)
	batches := churnBatches(r, len(values), 40)
	for _, b := range batches {
		for i := range b {
			b[i].Value %= 5000 // collide with existing values
		}
	}
	o := newOracle(values, batches)
	for _, b := range batches {
		for _, m := range b {
			o.apply(m)
		}
		ref := stats.NewOracle(o.mirror)
		for _, phi := range []float64{0, 0.01, 0.3, 0.5, 0.77, 1} {
			if got, want := o.exactQuantile(phi), ref.Quantile(phi); got != want {
				t.Fatalf("quantile(%v) = %d, want %d", phi, got, want)
			}
		}
		for k := 0; k < 20; k++ {
			x := o.mirror[r.Intn(len(o.mirror))] + int64(r.Intn(3)) - 1
			if o.rank(x) != ref.Rank(x) || o.strictRank(x) != ref.StrictRank(x) {
				t.Fatalf("rank(%d) = %d/%d, want %d/%d", x, o.rank(x), o.strictRank(x), ref.Rank(x), ref.StrictRank(x))
			}
			phi := r.Float64()
			if o.withinEps(x, phi, 0.05) != ref.WithinEpsilon(x, phi, 0.05) {
				t.Fatalf("withinEps(%d, %v) disagrees with stats", x, phi)
			}
		}
	}
}

// TestCheckerFlagsCorruptAnswer corrupts one answer per workload and
// expects exactly that op to fail.
func TestCheckerFlagsCorruptAnswer(t *testing.T) {
	values := dist.Generate(dist.Uniform, 1000, 1)
	o := stats.NewOracle(values)
	log := []opRec{
		{kind: kindExact, phi: 0.5, value: o.Quantile(0.5), ops: 1},
		{kind: kindExact, phi: 0.5, value: o.Quantile(0.5) + 1, ops: 1},
		{kind: kindQuery, phi: 0.3, eps: 0.05, value: o.Quantile(0.3), ops: 1},
		{kind: kindQuery, phi: 0.3, eps: 0.05, value: o.Quantile(0.9), ops: 1},
	}
	if failed, _ := checkLog(newOracle(values, nil), log, nil); failed != 2 {
		t.Errorf("checker failed %d ops, want 2", failed)
	}

	serve, err := runServeWith(tinyOpts(t, 5, false), tinyServe(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if serve.failed != 1 {
		t.Errorf("serve with one corrupt answer: %d failed, want 1", serve.failed)
	}
	sh, err := runShardTCPWith(tinyOpts(t, 5, false), tinyShard(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sh.failed == 0 {
		t.Errorf("shard-tcp with one corrupt answer record: no failed ops")
	}
}

// TestShardRebuildsOnPlan: the writes the shard-tcp plan expects to
// rebuild, which it runs on all Ps, are the ones that rebuild.
func TestShardRebuildsOnPlan(t *testing.T) {
	rep, err := runShardTCP(tinyOpts(t, 3, false), tinyShard())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range rep.notes {
		if strings.Contains(n, "off the plan") {
			t.Error(n)
		}
	}
}

// TestServeChildReaped: every server the serve workload starts has exited
// and been reaped when it returns, whether the run checked out, failed its
// check, or failed to start a server at all.
func TestServeChildReaped(t *testing.T) {
	reaped := func(pids []int) {
		t.Helper()
		if len(pids) == 0 {
			t.Fatal("no server was started")
		}
		for _, pid := range pids {
			if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
				t.Errorf("server pid %d still exists (kill 0: %v)", pid, err)
			}
		}
	}
	var pids []int
	if _, err := runServeWith(tinyOpts(t, 2, true), tinyServe(), -1, &pids); err != nil {
		t.Fatal(err)
	}
	reaped(pids)

	pids = nil
	rep, err := runServeWith(tinyOpts(t, 2, false), tinyServe(), 0, &pids)
	if err != nil || rep.failed == 0 {
		t.Fatalf("corrupt run: err=%v failed=%v", err, rep)
	}
	reaped(pids)

	// A "server" that exits at once: start-up fails after three attempts.
	fake := filepath.Join(t.TempDir(), "gossipq")
	if err := os.WriteFile(fake, []byte("#!/bin/sh\nexit 3\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	pids = nil
	o := tinyOpts(t, 2, false)
	o.gossipqBin = fake
	if _, err := runServeWith(o, tinyServe(), -1, &pids); err == nil {
		t.Fatal("run with a server that cannot start succeeded")
	}
	reaped(pids)
}

// TestServePicksFreePort: the benchmark chooses its own loopback port, so
// a run succeeds while the gossipq serve default port is taken.
func TestServePicksFreePort(t *testing.T) {
	if ln, err := net.Listen("tcp", "127.0.0.1:8356"); err == nil {
		defer ln.Close()
	}
	p, err := freePort()
	if err != nil || p == 0 {
		t.Fatalf("freePort = %d, %v", p, err)
	}
	if _, err := runServe(tinyOpts(t, 9, false), tinyServe()); err != nil {
		t.Fatal(err)
	}
}

// TestLiveStepAllocs pins the live timed loop at zero allocations per op,
// approximate and exact alike: the session's steady state allocates
// nothing, and neither does the benchmark's timing and logging.
func TestLiveStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := tinyLive()
	c.cycles = 8
	s, _, err := liveSetup(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plan := livePlan(c, 1)
	l := newLiveLoop(s, plan, nil)
	// A collection empties the session's rig pool, the first query at each
	// φ fills that φ's plan cache, and a rig's exact scratch is built on its
	// first exact query: one-off costs, not per-op ones. Warm once over the
	// whole plan on one P (sync.Pool keeps rigs per P), then count a second
	// pass with the collector off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := range plan {
		l.step(i)
	}
	l = newLiveLoop(s, plan, nil)
	i := 0
	allocs := testing.AllocsPerRun(len(plan)-1, func() {
		l.step(i)
		i++
	})
	if allocs != 0 {
		t.Errorf("live step: %v allocs per op, want 0", allocs)
	}
}

// TestShardReadBatchAllocs pins the shard-tcp read batch, the loop's
// per-op path, at zero allocations.
func TestShardReadBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	c := tinyShard()
	rig, _, err := shardSetup(c, 1, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	plan := newShardPlan(c, 1)
	const runs = 20
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	l := &shardLoop{rig: rig, plan: plan, c: c,
		log:  make([]opRec, 0, (runs+1)*len(livePhis)),
		vals: make([]int64, c.reads), bad: make([]bool, c.reads)}
	for k := range l.lat {
		l.lat[k] = newSamples(runs + 1)
	}
	if allocs := testing.AllocsPerRun(runs, l.readBatch); allocs != 0 {
		t.Errorf("shard read batch: %v allocs, want 0", allocs)
	}
	for _, r := range l.log {
		if r.bad != 0 || r.ops == 0 {
			t.Fatalf("read batch logged a failed read: %+v", r)
		}
	}
}
