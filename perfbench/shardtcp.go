package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"gossipq"
	"gossipq/internal/dist"
	"gossipq/internal/livenet"
	"gossipq/internal/shard"
	"gossipq/internal/xrand"
)

// shardConfig shapes the shard-tcp workload: a gossipq.NewShardedClient
// router and shards shard.NewWorker workers in this process, each on its
// own livenet TCP peer transport over loopback, serving n uniform values at
// width eps (shards build at eps/2). A closed loop repeats: one Mutate of
// updates updates split evenly over the shards, the drift-gated
// Refresh(eps), then reads merged-snapshot Asks. A run is periods
// drift-budget periods; every shard crosses its budget on the same write,
// so each period ends with one epoch that rebuilds all shards.
type shardConfig struct {
	n         int
	shards    int
	eps       float64
	updates   int
	reads     int
	periods   int
	setupReps int
}

// shardPeriodSeconds is the nominal duration of one drift-budget period at
// n=2^19 over two shards on a 2-vCPU host: 410 cycles of ~70 µs, plus one
// ~2 s epoch that rebuilds both shards at once.
const shardPeriodSeconds = 2.05

func shardDefaults(seconds float64) shardConfig {
	return shardConfig{n: 1 << 19, shards: 2, eps: 0.2, updates: 64, reads: 1024,
		periods: cyclesFor(seconds, shardPeriodSeconds), setupReps: 3}
}

// shardPlan is the seeded op sequence.
type shardPlan struct {
	batches   [][]gossipq.Mutation
	perPeriod int             // writes per drift-budget period: the last one rebuilds
	queries   []gossipq.Query // one cycle's reads; every cycle reads the same φ sequence
	phiIdx    []int
	// shardOps holds each batch's per-shard ops (shard-local indices), for
	// timing the ops codec on the run's own batches.
	shardOps [][][]shard.Op
}

func newShardPlan(c shardConfig, seed uint64) *shardPlan {
	r := xrand.NewSource(seed).Sub(0x73687264).Stream(0) // "shrd"
	perPeriod := writesPerPeriod(c.n/c.shards, c.eps/2, c.updates/c.shards)
	cycles := c.periods * perPeriod
	p := &shardPlan{batches: make([][]gossipq.Mutation, cycles), perPeriod: perPeriod, shardOps: make([][][]shard.Op, cycles)}
	arena := make([]gossipq.Mutation, 0, cycles*c.updates)
	per := c.updates / c.shards
	for b := range p.batches {
		from := len(arena)
		p.shardOps[b] = make([][]shard.Op, c.shards)
		for s := 0; s < c.shards; s++ {
			lo, hi := shard.Partition(c.n, c.shards, s)
			for u := 0; u < per; u++ {
				i, v := lo+r.Intn(hi-lo), uniformValue(r)
				arena = append(arena, gossipq.Mutation{Op: gossipq.OpUpdate, Index: i, Value: v})
				p.shardOps[b][s] = append(p.shardOps[b][s], shard.Op{Kind: shard.OpUpdate, Index: i - lo, Value: v})
			}
		}
		p.batches[b] = arena[from:len(arena):len(arena)]
	}
	p0 := r.Intn(len(livePhis))
	for j := 0; j < c.reads; j++ {
		k := (p0 + j) % len(livePhis)
		p.phiIdx = append(p.phiIdx, k)
		p.queries = append(p.queries, gossipq.Query{Phi: livePhis[k], Eps: c.eps, Mode: gossipq.ServeSnapshot})
	}
	return p
}

// shardRig is one stood-up shard tier: the router client, the worker
// transports and sessions, and (traced runs) the timing wrappers.
type shardRig struct {
	client   *gossipq.ShardedSession
	peers    []*livenet.PeerTransport
	sessions []*gossipq.Session
	timed    []*timedBackend
	workers  sync.WaitGroup
}

// close tears the rig down and waits for every worker goroutine to exit.
// Closing it again does nothing.
func (r *shardRig) close() {
	if r.client != nil {
		r.client.Close() // closes the router's peer transport
	}
	for _, p := range r.peers {
		if p != nil {
			p.Close()
		}
	}
	r.workers.Wait()
	for _, s := range r.sessions {
		s.Close()
	}
	r.client, r.peers, r.sessions = nil, nil, nil
}

// shardSetup stands the tier up and runs the first merged Refresh.
func shardSetup(c shardConfig, seed uint64, trace bool, maxBuilds int) (*shardRig, []int64, error) {
	values := dist.Generate(dist.Uniform, c.n, seed)
	rig := &shardRig{}
	addrs := make([]string, c.shards+1)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	for i := range addrs {
		p, err := livenet.NewTCPPeerTransport(i, addrs, nil)
		if err != nil {
			rig.close()
			return nil, nil, err
		}
		rig.peers = append(rig.peers, p)
		addrs[i] = p.Addr()
	}
	for _, p := range rig.peers {
		p.SetPeerAddrs(addrs)
	}
	for i := 0; i < c.shards; i++ {
		lo, hi := shard.Partition(c.n, c.shards, i)
		cfg := gossipq.Config{Seed: shard.SeedFor(seed, i), Workers: 1}
		var clk *roundClock
		if trace {
			clk = newRoundClock(true)
			cfg.RoundObserver = clk
		}
		sess, err := gossipq.NewSession(values[lo:hi], cfg)
		if err != nil {
			rig.close()
			return nil, nil, err
		}
		rig.sessions = append(rig.sessions, sess)
		// One rig per P, so a worker goroutine that moves to another P
		// still finds a warm rig for its next build.
		sess.Prewarm(runtime.GOMAXPROCS(0))
		be := gossipq.NewSessionBackend(sess)
		if trace {
			tb := newTimedBackend(be, clk, maxBuilds)
			rig.timed = append(rig.timed, tb)
			be = tb
		}
		w := shard.NewWorker(i, rig.peers[i], be, nil)
		rig.workers.Add(1)
		go func() {
			defer rig.workers.Done()
			w.Run()
		}()
	}
	// The router's peer transport now belongs to the client, which closes it.
	router := rig.peers[c.shards]
	rig.peers = rig.peers[:c.shards]
	client, err := gossipq.NewShardedClient(router, c.shards, addrs[:c.shards], time.Hour, gossipq.Config{Seed: seed, Workers: 1})
	if err != nil {
		router.Close()
		rig.close()
		return nil, nil, err
	}
	rig.client = client
	if _, err := client.Refresh(c.eps); err != nil {
		rig.close()
		return nil, nil, fmt.Errorf("first merged refresh: %w", err)
	}
	return rig, values, nil
}

// shardLoop is the timed loop's state.
type shardLoop struct {
	rig     *shardRig
	plan    *shardPlan
	c       shardConfig
	lat     [numKinds]*samples
	log     []opRec
	version uint64
	vals    []int64 // one read batch's answers
	bad     []bool
	procs   int // GOMAXPROCS outside the window
	offPlan int // writes that rebuilt where the plan did not expect it, or the reverse

	// traced runs
	tr *shardTrace
}

// shardTrace accumulates the traced run's per-layer sums.
type shardTrace struct {
	builds                   []buildRec
	buildFrom                []int
	epochs                   int
	stragglerNs, overheadNs  int64
	slowestNs                int64
	mergeNs                  int64
	merges                   int
	applyNs, wireNs, codecNs int64
	applies, writes          int
	applySeen                int64
	appliesSeen              int
	rebuildMutNs             int64
	readNs                   int64
	reads                    int
	cuts                     [][]int64 // each shard's last shipped envelope
	shardN                   []int     // and the population it describes
	encBuf                   []int64
	decBuf                   []shard.Op
}

// readBatch runs one cycle's reads, timed as a batch, and logs one record
// per φ of the batch: every read of one φ must return the same value, since
// no write lands during a batch, and that value is checked after the window.
// It does not allocate (pinned by TestShardReadBatchAllocs).
func (l *shardLoop) readBatch() {
	qs := l.plan.queries
	t0 := now()
	for j, q := range qs {
		a, err := l.rig.client.Ask(q)
		l.vals[j] = a.Value
		l.bad[j] = err != nil || a.Mode != gossipq.ServeSnapshot
		if j == 0 {
			l.version = a.SnapshotVersion
		}
	}
	d := now() - t0
	l.lat[kindQuery].add(d) // per batch; reported per read
	if l.tr != nil {
		l.tr.readNs += d
		l.tr.reads += len(qs)
	}
	first := len(l.log)
	for k := range livePhis {
		l.log = append(l.log, opRec{kind: kindQuery, phi: livePhis[k], eps: l.c.eps, version: l.version, value: -1})
	}
	recs := l.log[first:]
	for j := range qs {
		r := &recs[l.plan.phiIdx[j]]
		switch {
		case l.bad[j]:
			r.bad++
		case r.ops == 0 && r.value == -1:
			r.value, r.ops = l.vals[j], 1
		case l.vals[j] == r.value:
			r.ops++
		default:
			r.bad++
		}
	}
}

// write applies batch b and the drift-gated refresh, logged as a write or,
// when the refresh published a new merged version, a rebuild. The window
// runs on one P (see runShardTCPWith); the write that the plan expects to
// rebuild runs on procs Ps, so that both shards build at once.
func (l *shardLoop) write(b int) {
	planned := (b+1)%l.plan.perPeriod == 0
	if planned {
		runtime.GOMAXPROCS(l.procs)
	}
	t0 := now()
	_, err := l.rig.client.Mutate(l.plan.batches[b])
	t1 := now()
	info, rerr := l.rig.client.Refresh(l.c.eps)
	t2 := now()
	if planned {
		runtime.GOMAXPROCS(1)
	}
	rec := opRec{kind: kindWrite, batch: int32(b), ops: 1, version: info.Version}
	if err != nil || rerr != nil {
		rec.ops, rec.bad = 0, 1
	} else if info.Version != l.version {
		rec.kind = kindRebuild
		l.version = info.Version
	}
	if (rec.kind == kindRebuild) != planned {
		l.offPlan++
	}
	l.lat[rec.kind].add(t2 - t0)
	l.log = append(l.log, rec)
	if l.tr != nil {
		l.traceWrite(b, rec.kind == kindRebuild, t1-t0, t2-t1)
	}
}

// traceWrite books one write's layer spans: the worker-side Apply spans
// against the router-side Mutate span, the ops codec on the same batch, and
// for a rebuilding epoch the shard builds, their straggler gap, the epoch
// overhead, and the public merge on the epoch's envelopes.
func (l *shardLoop) traceWrite(b int, rebuilt bool, mutNs, refreshNs int64) {
	tr := l.tr
	var applyNs int64
	applies := 0
	slowest, fastest := int64(0), int64(-1)
	built := 0
	for s, tb := range l.rig.timed {
		builds, aNs, aCount, cuts, n := tb.take(tr.buildFrom[s], tr.cuts[s])
		tr.cuts[s], tr.shardN[s] = cuts, n
		applyNs += aNs
		applies += aCount
		for _, br := range builds {
			d := br.end - br.start
			slowest = max(slowest, d)
			if fastest < 0 || d < fastest {
				fastest = d
			}
			tr.builds = append(tr.builds, br)
			built++
		}
		tr.buildFrom[s] += len(builds)
	}
	// Apply spans are cumulative per worker; this write's share is the
	// growth since the previous write.
	dApply := applyNs - tr.applySeen
	tr.applyNs += dApply
	tr.applies += applies - tr.appliesSeen
	tr.applySeen, tr.appliesSeen = applyNs, applies
	tr.wireNs += mutNs - dApply
	tr.writes++

	const codecReps = 16
	t0 := now()
	for r := 0; r < codecReps; r++ {
		for _, ops := range l.plan.shardOps[b] {
			tr.encBuf = shard.EncodeOps(tr.encBuf[:0], ops)
			tr.decBuf, _ = shard.DecodeOps(tr.decBuf[:0], tr.encBuf)
		}
	}
	tr.codecNs += (now() - t0) / codecReps

	if !rebuilt {
		return
	}
	tr.rebuildMutNs += mutNs
	if built > 0 {
		tr.epochs++
		tr.slowestNs += slowest
		tr.stragglerNs += slowest - fastest
		tr.overheadNs += refreshNs - slowest
	}
	sums := make([]*gossipq.Summary, 0, len(tr.cuts))
	for s, cuts := range tr.cuts {
		sum, err := gossipq.NewSummaryFromCuts(l.c.eps/2, tr.shardN[s], cuts)
		if err != nil {
			return
		}
		sums = append(sums, sum)
	}
	t0 = now()
	if _, err := gossipq.MergeSummaries(sums, l.c.eps); err == nil {
		tr.mergeNs += now() - t0
		tr.merges++
	}
}

func runShardTCP(o runOpts, c shardConfig) (*report, error) {
	return runShardTCPWith(o, c, -1)
}

// runShardTCPWith runs the shard-tcp workload; corrupt >= 0 corrupts the
// first read record at or after that log index (the smoke test's wrong
// answer).
func runShardTCPWith(o runOpts, c shardConfig, corrupt int) (*report, error) {
	rep := newReport()
	plan := newShardPlan(c, o.seed)
	maxBuilds := c.periods + 2
	rig, values, err := shardSetup(c, o.seed, o.trace, maxBuilds)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	info, _ := rig.client.Snapshot()
	cycles := len(plan.batches)
	l := &shardLoop{rig: rig, plan: plan, c: c, version: info.Version,
		log:  make([]opRec, 0, cycles*(len(livePhis)+1)),
		vals: make([]int64, c.reads), bad: make([]bool, c.reads)}
	for k := range l.lat {
		l.lat[k] = newSamples(cycles)
	}
	var st0 gossipq.ShardedStats
	var sess0 []gossipq.SessionStats
	if o.trace {
		l.tr = &shardTrace{buildFrom: make([]int, c.shards), cuts: make([][]int64, c.shards), shardN: make([]int, c.shards),
			builds: make([]buildRec, 0, maxBuilds*c.shards)}
		for s, tb := range rig.timed {
			builds, applyNs, applies, _, _ := tb.take(0, nil)
			l.tr.buildFrom[s] = len(builds)
			l.tr.applySeen += applyNs
			l.tr.appliesSeen += applies
		}
		st0 = rig.client.Stats()
		for _, s := range rig.sessions {
			sess0 = append(sess0, s.Stats())
		}
	}

	// The window runs on one P, but for the planned rebuild writes. A
	// write is two loopback round trips between this goroutine and the
	// workers' goroutines, which never need two cores at once. On two Ps,
	// each write took either ~25 or ~60 µs, by whether its wake-ups
	// crossed to the other, idle, vCPU; the share of slow writes in a run
	// ranged from 20% to 70%, so the write median of a run read 0.03 or
	// 0.05 ms.
	l.procs = runtime.GOMAXPROCS(1)
	gc0 := numGC()
	deadline := o.deadline()
	start := now()
	for cy := 0; cy < cycles && now() <= deadline; cy++ {
		l.write(cy)
		l.readBatch()
	}
	window := float64(now()-start) / 1e9
	runtime.GOMAXPROCS(l.procs)
	if l.offPlan > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("%d writes rebuilt off the plan's schedule, or did not rebuild on it", l.offPlan))
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d GC cycles in the window", numGC()-gc0))

	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	corruptRead(l.log, corrupt)
	for _, r := range l.log {
		rep.attempted += int(r.ops + r.bad)
	}
	failed, digest := checkLog(newOracle(values, plan.batches), l.log, plan.batches)
	rep.failed, rep.digest = failed, digest

	nWrites := cycles - c.periods
	qs, ws, rs := l.lat[kindQuery], l.lat[kindWrite], l.lat[kindRebuild]
	rep.e2e["query_p50_ms"] = qs.quantileMs(0.5) / float64(c.reads)
	rep.e2e["query_tail_ms"] = qs.quantileMs(tailFor(cycles)) / float64(c.reads)
	rep.e2e["write_p50_ms"] = ws.quantileMs(0.5)
	rep.e2e["write_tail_ms"] = ws.quantileMs(tailFor(nWrites))
	rep.e2e["rebuild_p50_ms"] = rs.quantileMs(0.5)
	rep.e2e["peak_rss_mb"] = rss
	rep.e2e["ops_per_s"] = float64(rep.attempted) / window
	rep.fillStandIns([]standIn{{"exact_p50_ms", "rebuild_p50_ms"}})
	rep.notes = append(rep.notes, fmt.Sprintf("query = one merged-snapshot Ask, timed per batch of %d; query tail p%g of %d batches; write tail p%g of %d writes; %d rebuilds",
		c.reads, 100*tailFor(cycles), qs.count(), 100*tailFor(nWrites), ws.count(), rs.count()))

	if o.trace {
		shardLayers(rep, l, st0, sess0, c, o.seed)
	}
	// Set-up is timed after the window, with this run's tier down, so that
	// nothing runs between the run's own set-up and its window.
	rig.close()
	setups, err := timeSetups(c.setupReps, shardSetupArgs(c, o.seed))
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = median(setups)
	return rep, nil
}

// shardLayers fills the traced shard-tcp run's per-layer metrics.
func shardLayers(rep *report, l *shardLoop, st0 gossipq.ShardedStats, sess0 []gossipq.SessionStats, c shardConfig, seed uint64) {
	L, tr := rep.layers, l.tr
	ms := func(ns int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n) / 1e6
	}
	var sum roundSpan
	var buildNs int64
	for _, b := range tr.builds {
		b.span.addTo(&sum)
		buildNs += b.end - b.start
	}
	nb := len(tr.builds)
	L["tournament.t2_ms"] = ms(sum.phaseNs[phT2], nb)
	L["tournament.t3_ms"] = ms(sum.phaseNs[phT3], nb)
	L["tournament.sample_ms"] = ms(sum.phaseNs[phSample], nb)
	if nb > 0 {
		L["tournament.rounds"] = float64(sum.rounds) / float64(nb)
		L["summary.gridpoints"] = float64(sum.points) / float64(nb)
	}
	if gaps := sum.rounds - sum.points; gaps > 0 {
		L["tournament.round_us"] = float64(sum.tourNs()) / float64(gaps) / 1e3
	}
	L["summary.gridpoint_ms"] = ms(sum.pointNs, sum.points)
	L["summary.between_points_ms"] = ms(sum.betweenNs, sum.points-nb)
	L["shard.build_ms"] = ms(buildNs, nb)
	L["shard.straggler_ms"] = ms(tr.stragglerNs, tr.epochs)
	if tr.epochs > 0 {
		L["shard.builds_per_rebuild"] = float64(nb) / float64(tr.epochs)
	}
	L["shard.epoch_overhead_ms"] = ms(tr.overheadNs, tr.epochs)
	L["merge.merge_us"] = ms(tr.mergeNs, tr.merges) * 1e3
	writes := tr.writes
	L["shard.apply_us"] = ms(tr.applyNs, tr.applies) * 1e3
	L["shard.wire_us"] = ms(tr.wireNs, writes) * 1e3
	L["shard.codec_us"] = ms(tr.codecNs, writes) * 1e3
	if tr.reads > 0 {
		L["summary.read_ns"] = float64(tr.readNs) / float64(tr.reads)
	}
	L["sim.pull_us"] = pullRoundUs(c.n/c.shards, seed)

	st := l.rig.client.Stats()
	rec, fresh := st.RecycledBackings-st0.RecycledBackings, st.FreshBackings-st0.FreshBackings
	for i, s := range l.rig.sessions {
		ss := s.Stats()
		rec += ss.RecycledBackings - sess0[i].RecycledBackings
		fresh += ss.FreshBackings - sess0[i].FreshBackings
	}
	if rec+fresh > 0 {
		L["summary.recycled_frac"] = float64(rec) / float64(rec+fresh)
	}
	L["heap_retained_mb"] = heapRetainedMB()

	qs, ws, rs := l.lat[kindQuery], l.lat[kindWrite], l.lat[kindRebuild]
	rep.unattributed(kindQuery, qs.meanMs()/float64(c.reads), L["summary.read_ns"]/1e6)
	rep.unattributed(kindWrite, ws.meanMs(), ms(tr.applyNs, writes), ms(tr.wireNs, writes))
	rep.unattributed(kindRebuild, rs.meanMs(), ms(tr.rebuildMutNs, tr.epochs), ms(tr.slowestNs, tr.epochs), L["merge.merge_us"]/1e3)
}
