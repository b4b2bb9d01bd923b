package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"gossipq"
	"gossipq/internal/dist"
	"gossipq/internal/sim"
	"gossipq/internal/xrand"
)

// liveConfig shapes the live workload: an in-process Session over n uniform
// values answering, in a closed loop, perCycle live approximate queries at
// width eps (φ cycling over livePhis) and then one exact query, for cycles
// rounds of that pattern.
type liveConfig struct {
	n         int
	eps       float64
	perCycle  int
	cycles    int
	setupReps int
}

// liveCycleSeconds is the nominal duration of one live cycle at n=2^16 on a
// 2-vCPU host (64 approximate queries at ~19 ms, one exact at ~0.6 s); it
// turns --seconds into a fixed cycle count. At 30 s that is 15 cycles: 960
// approximate queries, so the query tail sits at p95, 48 samples deep,
// where at p99 (10 samples deep) it moved by 18% between seeds.
const liveCycleSeconds = 2.0

var livePhis = []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}

// exactPhis are the exact queries' targets: interior quantiles, where the
// exact algorithm runs both of its brackets, so every exact query does the
// same kind of work.
var exactPhis = []float64{0.25, 0.5, 0.75}

// liveSessionSeed seeds the live population and the session, whatever the
// run's --seed. An exact query takes two or three bracket iterations (about
// 0.5 or 0.7 s at n=2^16), and which one depends on the population and the
// query's engine seed. With both seeded from the run's seed, set-up (which
// answers warm exact queries) and the median of a run's 15 exact queries
// each fell on one of two levels by seed, and the medians of two ten-seed
// sets differed by 25%. With both fixed, and the exact queries' φ in a fixed
// order, every run does the same exact work; --seed orders the approximate
// queries' φ.
const liveSessionSeed = 0x6c697665 // "live"

func liveDefaults(seconds float64) liveConfig {
	return liveConfig{n: 1 << 16, eps: 0.05, perCycle: 64, cycles: cyclesFor(seconds, liveCycleSeconds), setupReps: 3}
}

// cyclesFor turns a run length into a whole number of cycles, at least one.
func cyclesFor(seconds, cycleSeconds float64) int {
	return max(1, int(seconds/cycleSeconds+0.5))
}

// livePlan is the seeded op sequence: the query of every timed op in order.
func livePlan(c liveConfig, seed uint64) []gossipq.Query {
	r := xrand.NewSource(seed).Sub(0x6c697665).Stream(0) // "live"
	p0 := r.Intn(len(livePhis))
	qs := make([]gossipq.Query, 0, c.cycles*(c.perCycle+1))
	for cy := 0; cy < c.cycles; cy++ {
		for i := 0; i < c.perCycle; i++ {
			qs = append(qs, gossipq.Query{Phi: livePhis[(p0+cy*c.perCycle+i)%len(livePhis)], Eps: c.eps})
		}
		qs = append(qs, gossipq.Query{Phi: exactPhis[cy%len(exactPhis)], Exact: true})
	}
	return qs
}

// liveSetup builds the session a live run serves from: population generated,
// session up, rig pool prewarmed, and one warm approximate and one warm exact
// query answered.
func liveSetup(c liveConfig, obs gossipq.RoundObserver) (*gossipq.Session, []int64, error) {
	values := dist.Generate(dist.Uniform, c.n, liveSessionSeed)
	s, err := gossipq.NewSession(values, gossipq.Config{Seed: liveSessionSeed, Workers: 1, RoundObserver: obs})
	if err != nil {
		return nil, nil, err
	}
	// One rig per P, as gossipq serve prewarms: sync.Pool keeps rigs per P,
	// so a client goroutine that moves to another P finds a warm rig there.
	rigs := runtime.GOMAXPROCS(0)
	s.Prewarm(rigs)
	if _, err := s.Ask(gossipq.Query{Phi: 0.5, Eps: c.eps}); err != nil {
		return nil, nil, fmt.Errorf("warm approx query: %w", err)
	}
	// One warm exact query per rig, all at once so that each takes its own
	// rig: a rig builds its exact scratch on its first exact query, and a
	// run whose timed exact query met a cold rig peaked 65 MB higher.
	errs := make([]error, rigs)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.Ask(gossipq.Query{Phi: 0.5, Exact: true})
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, fmt.Errorf("warm exact query: %w", err)
	}
	return s, values, nil
}

// liveLoop holds the timed loop's state: the plan, the preallocated sample
// buffers and answer log, and (traced runs) the round clock and the span
// sums per op kind.
type liveLoop struct {
	s     *gossipq.Session
	plan  []gossipq.Query
	lat   [2]*samples // kindQuery, kindExact
	log   []opRec
	clk   *roundClock
	spans [2]roundSpan
}

func newLiveLoop(s *gossipq.Session, plan []gossipq.Query, clk *roundClock) *liveLoop {
	l := &liveLoop{s: s, plan: plan, log: make([]opRec, 0, len(plan)), clk: clk}
	for k := range l.lat {
		l.lat[k] = newSamples(len(plan))
	}
	return l
}

// step runs op i of the plan, timing it and logging its answer. It does not
// allocate (pinned by TestLiveStepAllocs).
func (l *liveLoop) step(i int) {
	q := l.plan[i]
	kind := kindQuery
	if q.Exact {
		kind = kindExact
	}
	t0 := now()
	if l.clk != nil {
		l.clk.begin(t0)
	}
	a, err := l.s.Ask(q)
	t1 := now()
	if l.clk != nil {
		sp := l.clk.end(t1)
		sp.addTo(&l.spans[kind])
	}
	l.lat[kind].add(t1 - t0)
	rec := opRec{kind: uint8(kind), phi: q.Phi, eps: q.Eps, value: a.Value, ops: 1}
	if err != nil || a.Mode != gossipq.ServeLive {
		rec.ops, rec.bad = 0, 1
	}
	l.log = append(l.log, rec)
}

func runLive(o runOpts, c liveConfig) (*report, error) {
	rep := newReport()
	var clk *roundClock
	var obs gossipq.RoundObserver
	if o.trace {
		clk = newRoundClock(false)
		obs = clk
	}
	s, values, err := liveSetup(c, obs)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	plan := livePlan(c, o.seed)
	loop := newLiveLoop(s, plan, clk)

	gc0 := numGC()
	deadline := o.deadline()
	start := now()
	for i := range plan {
		loop.step(i)
		if now() > deadline {
			break
		}
	}
	window := float64(now()-start) / 1e9
	rep.notes = append(rep.notes, fmt.Sprintf("%d GC cycles in the window", numGC()-gc0))

	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	rep.attempted = len(loop.log)
	failed, digest := checkLog(newOracle(values, nil), loop.log, nil)
	rep.failed, rep.digest = failed, digest

	nq := c.cycles * c.perCycle
	qs, es := loop.lat[kindQuery], loop.lat[kindExact]
	rep.e2e["query_p50_ms"] = qs.quantileMs(0.5)
	rep.e2e["query_tail_ms"] = qs.quantileMs(tailFor(nq))
	rep.e2e["exact_p50_ms"] = es.quantileMs(0.5)
	rep.e2e["peak_rss_mb"] = rss
	rep.e2e["ops_per_s"] = float64(rep.attempted) / window
	rep.fillStandIns([]standIn{
		{"write_p50_ms", "query_p50_ms"},
		{"write_tail_ms", "query_tail_ms"},
		{"rebuild_p50_ms", "exact_p50_ms"},
	})
	rep.notes = append(rep.notes, fmt.Sprintf("query tail is p%g of %d approx queries; %d exact queries", 100*tailFor(nq), qs.count(), es.count()))

	if o.trace {
		liveLayers(rep, loop, c.n, o.seed)
	}
	// Set-up is timed after the window, with this run's session closed, so
	// that nothing runs between the run's own set-up and its window.
	s.Close()
	setups, err := timeSetups(c.setupReps, liveSetupArgs(c))
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = median(setups)
	return rep, nil
}

// liveLayers fills the traced run's per-layer metrics from the round spans.
func liveLayers(rep *report, l *liveLoop, n int, seed uint64) {
	L := rep.layers
	qs, es := l.lat[kindQuery], l.lat[kindExact]
	if nq := float64(qs.count()); nq > 0 {
		sp := &l.spans[kindQuery]
		per := func(ns int64) float64 { return float64(ns) / nq / 1e6 }
		L["session.ask_ms"] = qs.meanMs()
		L["tournament.setup_ms"] = per(sp.setupNs)
		L["tournament.t2_ms"] = per(sp.phaseNs[phT2])
		L["tournament.t3_ms"] = per(sp.phaseNs[phT3])
		L["tournament.sample_ms"] = per(sp.phaseNs[phSample])
		L["tournament.finish_ms"] = per(sp.finishNs)
		L["tournament.rounds"] = float64(sp.rounds) / nq
		if gaps := sp.rounds - int(nq); gaps > 0 {
			L["tournament.round_us"] = float64(sp.tourNs()) / float64(gaps) / 1e3
		}
		rep.unattributed(kindQuery, qs.meanMs(), L["tournament.setup_ms"], L["tournament.t2_ms"],
			L["tournament.t3_ms"], L["tournament.sample_ms"], L["tournament.finish_ms"])
	}
	if ne := float64(es.count()); ne > 0 {
		sp := &l.spans[kindExact]
		per := func(ns int64) float64 { return float64(ns) / ne / 1e6 }
		L["exact.flood_ms"] = per(sp.phaseNs[phFlood])
		L["exact.count_ms"] = per(sp.phaseNs[phCount])
		L["exact.distribute_ms"] = per(sp.phaseNs[phDistribute])
		L["exact.tour_ms"] = per(sp.tourNs())
		L["exact.rounds"] = float64(sp.rounds) / ne
		rep.unattributed(kindExact, es.meanMs(), L["exact.flood_ms"], L["exact.count_ms"],
			L["exact.distribute_ms"], L["exact.tour_ms"])
	}
	L["sim.pull_us"] = pullRoundUs(n, seed)
	L["heap_retained_mb"] = heapRetainedMB()
}

// pullRoundUs times bare internal/sim Pull rounds at population n on one
// worker, the engine cost under every protocol round, and returns the median
// in microseconds.
func pullRoundUs(n int, seed uint64) float64 {
	e := sim.New(n, seed, sim.WithWorkers(1))
	ws := sim.NewPullWorkspace(e)
	dst := ws.Dst(0)
	ws.Pull(dst, 64)
	const reps = 101
	us := make([]float64, reps)
	for i := range us {
		t0 := now()
		ws.Pull(dst, 64)
		us[i] = float64(now()-t0) / 1e3
	}
	return median(us)
}

func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

// heapRetainedMB is the live heap after a forced collection.
func heapRetainedMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
