package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gossipq"
	"gossipq/internal/dist"
	"gossipq/internal/xrand"
)

// serveConfig shapes the serve workload: a `gossipq serve` process over n
// uniform values publishing an ε-summary at summaryEps, driven over one
// keep-alive connection by a closed loop of cycles. A cycle is reads·burst
// GET /quantile snapshot reads at eps, then burst back-to-back POST /mutate
// writes, each a 32-op batch (24 updates and 4 insert/delete pairs, so n
// stays fixed) with its inline drift-gated repair. A run is periods
// drift-budget periods: the repair rebuilds on the write that crosses the
// budget, so each period ends with one rebuild.
//
// The writes come in bursts because a write that follows a long run of
// reads finds the server's write path evicted from cache: at one write per
// 256 reads its median swung with the host's memory contention, by more
// than the reads did. Within a burst all writes but the first are warm, so
// the write median is a warm write's, and the cold first writes land in
// the tail.
type serveConfig struct {
	n          int
	summaryEps float64
	eps        float64
	reads      int // reads per write
	burst      int // writes per cycle
	periods    int
	setupReps  int
}

// servePeriodSeconds is the nominal duration of one drift-budget period at
// n=2^17 on a 2-vCPU host: 205 writes and 256 reads (~25 µs each) per
// write, plus one ~0.8 s rebuild.
const servePeriodSeconds = 2.2

func serveDefaults(seconds float64) serveConfig {
	return serveConfig{n: 1 << 17, summaryEps: 0.1, eps: 0.1, reads: 256, burst: 32,
		periods: cyclesFor(seconds, servePeriodSeconds), setupReps: 3}
}

// writesPerPeriod is how many 32-op writes cross the summary's drift budget
// ⌊εn/2⌋ (the gossipq drift gate rebuilds once drift reaches it).
func writesPerPeriod(n int, eps float64, opsPerWrite int) int {
	budget := int(eps * float64(n) / 2)
	return (budget + opsPerWrite - 1) / opsPerWrite
}

// churnBatches plans count batches of 24 updates and 4 insert/delete pairs
// over a population of n values, with new values drawn like dist.Uniform's.
func churnBatches(r *xrand.RNG, n, count int) [][]gossipq.Mutation {
	arena := make([]gossipq.Mutation, 0, 32*count)
	out := make([][]gossipq.Mutation, count)
	for b := range out {
		from := len(arena)
		for p := 0; p < 4; p++ {
			for u := 0; u < 6; u++ {
				arena = append(arena, gossipq.Mutation{Op: gossipq.OpUpdate, Index: r.Intn(n), Value: uniformValue(r)})
			}
			arena = append(arena,
				gossipq.Mutation{Op: gossipq.OpInsert, Value: uniformValue(r)},
				gossipq.Mutation{Op: gossipq.OpDelete, Index: r.Intn(n + 1)})
		}
		out[b] = arena[from:len(arena):len(arena)]
	}
	return out
}

// uniformValue draws like dist.Uniform: 55 random bits.
func uniformValue(r *xrand.RNG) int64 { return int64(r.Uint64() >> 9) }

func mutateBody(ops []gossipq.Mutation) []byte {
	var b strings.Builder
	b.WriteString(`{"ops":[`)
	for i, m := range ops {
		if i > 0 {
			b.WriteByte(',')
		}
		switch m.Op {
		case gossipq.OpInsert:
			fmt.Fprintf(&b, `{"op":"insert","value":%d}`, m.Value)
		case gossipq.OpDelete:
			fmt.Fprintf(&b, `{"op":"delete","index":%d}`, m.Index)
		case gossipq.OpUpdate:
			fmt.Fprintf(&b, `{"op":"update","index":%d,"value":%d}`, m.Index, m.Value)
		}
	}
	b.WriteString(`]}`)
	return []byte(b.String())
}

// servePlan is the seeded op sequence: the φ of each read and the mutation
// batch of each write. Cycle k reads readPhi[k·reads·burst:] and writes
// batches[k·burst:].
type servePlan struct {
	readPhi []int // index into livePhis, per read
	batches [][]gossipq.Mutation
}

// newServePlan plans enough whole cycles to cross the drift budget periods
// times.
func newServePlan(c serveConfig, seed uint64) *servePlan {
	r := xrand.NewSource(seed).Sub(0x73727665).Stream(0) // "srve"
	writes := c.periods * writesPerPeriod(c.n, c.summaryEps, 32)
	writes = (writes + c.burst - 1) / c.burst * c.burst
	p := &servePlan{readPhi: make([]int, writes*c.reads)}
	p0 := r.Intn(len(livePhis))
	for i := range p.readPhi {
		p.readPhi[i] = (p0 + i) % len(livePhis)
	}
	p.batches = churnBatches(r, c.n, writes)
	return p
}

// serverProc is one running `gossipq serve` child. The child gets SIGKILL
// if this process dies first, and stop always waits for it to exit.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// freePort asks the kernel for a free loopback port. gossipq serve does not
// report the port it bound for -addr :0, so the benchmark picks one itself
// (and retries start-up should another process take it first).
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func startServer(bin string, c serveConfig, seed uint64, pids *[]int) (*serverProc, error) {
	if bin == "" {
		return nil, fmt.Errorf("serve workload needs -gossipq (run it through run.sh)")
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "serve",
		"-addr", addr, "-n", strconv.Itoa(c.n), "-seed", strconv.FormatUint(seed, 10),
		"-summary-eps", strconv.FormatFloat(c.summaryEps, 'g', -1, 64),
		"-eps", strconv.FormatFloat(c.eps, 'g', -1, 64),
		"-log-level", "warn")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start gossipq serve: %w", err)
	}
	if pids != nil {
		*pids = append(*pids, cmd.Process.Pid)
	}
	p := &serverProc{cmd: cmd, addr: addr, exited: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// pollClient serves the untimed requests (/healthz, /metrics). Without
// keep-alive no idle connection, and no goroutine serving one, outlives a
// request.
var pollClient = &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// waitReady polls /healthz until the server reports a published snapshot.
func (p *serverProc) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("gossipq serve exited during start-up: %v", p.err)
		default:
		}
		var h struct {
			SnapshotVersion uint64 `json:"snapshot_version"`
		}
		if resp, err := pollClient.Get("http://" + p.addr + "/healthz"); err == nil {
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && h.SnapshotVersion >= 1 {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("gossipq serve not ready within %v", timeout)
}

// stop sends SIGTERM, waits for a graceful exit, and kills the server if it
// does not exit in time. It returns once the process has been reaped.
func (p *serverProc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
}

// launchServer starts a server and waits until it is ready, retrying with a
// fresh port when the child dies during start-up (another process may have
// taken the port between freePort and the child's listen).
func launchServer(bin string, c serveConfig, seed uint64, pids *[]int) (*serverProc, float64, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		t0 := now()
		p, err := startServer(bin, c, seed, pids)
		if err != nil {
			return nil, 0, err
		}
		if err := p.waitReady(120 * time.Second); err != nil {
			p.stop()
			lastErr = err
			continue
		}
		return p, float64(now()-t0) / 1e9, nil
	}
	return nil, 0, lastErr
}

// scrapeMetrics reads the server's /metrics into a map keyed by series
// (name plus labels, as exposed).
func scrapeMetrics(addr string) (map[string]float64, error) {
	resp, err := pollClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, sc.Err()
}

// serveClient sends the timed requests through net/http over one keep-alive
// connection, and decodes each response into a reused struct.
type serveClient struct {
	hc   *http.Client
	body bytes.Buffer
	resp serveResp
}

// serveResp holds the response fields the checker reads, from /quantile
// and /mutate alike. Value is a pointer so that an answer without a value
// can be told from a zero.
type serveResp struct {
	Value           *int64 `json:"value"`
	Mode            string `json:"mode"`
	SnapshotVersion uint64 `json:"snapshot_version"`
	N               int    `json:"n"`
	Repair          string `json:"repair"`
}

func newServeClient() *serveClient {
	return &serveClient{hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// do sends req, decodes its response into c.resp and returns the status.
func (c *serveClient) do(req *http.Request) (int, error) {
	c.resp = serveResp{}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.Unmarshal(c.body.Bytes(), &c.resp)
}

func (c *serveClient) close() { c.hc.CloseIdleConnections() }

// serveLoop is the timed loop's state: the plan's requests, built before the
// window, and the sample buffers and answer log.
type serveLoop struct {
	cl      *serveClient
	plan    *servePlan
	c       serveConfig
	reqRead []*http.Request // one GET per livePhis entry, reused
	reqMut  []*http.Request // one POST per batch
	lat     [numKinds]*samples
	log     []opRec
}

func newServeLoop(addr string, plan *servePlan, c serveConfig) (*serveLoop, error) {
	ops := len(plan.readPhi) + len(plan.batches)
	l := &serveLoop{cl: newServeClient(), plan: plan, c: c, log: make([]opRec, 0, ops)}
	for k := range l.lat {
		l.lat[k] = newSamples(ops)
	}
	for _, phi := range livePhis {
		req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("http://%s/quantile?phi=%g&eps=%g", addr, phi, c.eps), nil)
		if err != nil {
			return nil, err
		}
		l.reqRead = append(l.reqRead, req)
	}
	for _, b := range plan.batches {
		req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/mutate", bytes.NewReader(mutateBody(b)))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		l.reqMut = append(l.reqMut, req)
	}
	return l, nil
}

// read issues read i of the plan and logs its answer.
func (l *serveLoop) read(i int) {
	phiIdx := l.plan.readPhi[i]
	t0 := now()
	status, err := l.cl.do(l.reqRead[phiIdx])
	l.lat[kindQuery].add(now() - t0)
	a := &l.cl.resp
	rec := opRec{kind: kindQuery, phi: livePhis[phiIdx], eps: l.c.eps, version: a.SnapshotVersion, ops: 1}
	if a.Value != nil {
		rec.value = *a.Value
	}
	if err != nil || status != http.StatusOK || a.Value == nil || a.Mode != "snapshot" || a.SnapshotVersion == 0 {
		rec.ops, rec.bad = 0, 1
	}
	l.log = append(l.log, rec)
}

// write issues write b of the plan and logs it as a write or, when the
// server's drift-gated repair rebuilt the summary, a rebuild.
func (l *serveLoop) write(b int) {
	t0 := now()
	status, err := l.cl.do(l.reqMut[b])
	d := now() - t0
	a := &l.cl.resp
	rec := opRec{kind: kindWrite, batch: int32(b), version: a.SnapshotVersion, ops: 1}
	if a.Repair == "rebuilt" {
		rec.kind = kindRebuild
	}
	if err != nil || status != http.StatusOK || a.N != l.c.n || (rec.kind == kindWrite && a.Repair != "skipped") {
		rec.ops, rec.bad = 0, 1
	}
	l.lat[rec.kind].add(d)
	l.log = append(l.log, rec)
}

func runServe(o runOpts, c serveConfig) (*report, error) {
	return runServeWith(o, c, -1, nil)
}

// runServeWith runs the serve workload; corrupt >= 0 corrupts the first
// read answer at or after that log index, and pids, when non-nil, collects
// the pid of every server started. Every server it starts is stopped and
// reaped before it returns, on every path.
func runServeWith(o runOpts, c serveConfig, corrupt int, pids *[]int) (*report, error) {
	rep := newReport()
	plan := newServePlan(c, o.seed)
	var setups []float64
	var p *serverProc
	defer func() {
		if p != nil {
			p.stop()
		}
	}()
	for r := 0; r < c.setupReps; r++ {
		if p != nil {
			p.stop()
			p = nil
		}
		var s float64
		var err error
		if p, s, err = launchServer(o.gossipqBin, c, o.seed, pids); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	l, err := newServeLoop(p.addr, plan, c)
	if err != nil {
		return nil, err
	}
	defer l.cl.close()
	var before map[string]float64
	if o.trace {
		if before, err = scrapeMetrics(p.addr); err != nil {
			return nil, err
		}
	}

	// The client's goroutines (this one and net/http's connection
	// goroutines) hand each request along and never run in parallel. On one
	// P they leave the other core to the server, and no idle P spins looking
	// for their work.
	procs := runtime.GOMAXPROCS(1)
	readsPerCycle := c.reads * c.burst
	cycles := len(plan.batches) / c.burst
	deadline := o.deadline()
	start := now()
	for cy := 0; cy < cycles && now() <= deadline; cy++ {
		for i := 0; i < readsPerCycle; i++ {
			l.read(cy*readsPerCycle + i)
		}
		for w := 0; w < c.burst; w++ {
			l.write(cy*c.burst + w)
		}
	}
	window := float64(now()-start) / 1e9
	runtime.GOMAXPROCS(procs)

	rss, err := peakRSSMB(p.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	var after map[string]float64
	if o.trace {
		if after, err = scrapeMetrics(p.addr); err != nil {
			return nil, err
		}
	}
	p.stop()

	corruptRead(l.log, corrupt)
	rep.attempted = len(l.log)
	failed, digest := checkLog(newOracle(dist.Generate(dist.Uniform, c.n, o.seed), plan.batches), l.log, plan.batches)
	rep.failed, rep.digest = failed, digest

	rebuilds := len(plan.batches) / writesPerPeriod(c.n, c.summaryEps, 32)
	nReads, nWrites := len(plan.readPhi), len(plan.batches)-rebuilds
	qs, ws, rs := l.lat[kindQuery], l.lat[kindWrite], l.lat[kindRebuild]
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["query_p50_ms"] = qs.quantileMs(0.5)
	rep.e2e["query_tail_ms"] = qs.quantileMs(tailFor(nReads))
	rep.e2e["write_p50_ms"] = ws.quantileMs(0.5)
	rep.e2e["write_tail_ms"] = ws.quantileMs(tailFor(nWrites))
	rep.e2e["rebuild_p50_ms"] = rs.quantileMs(0.5)
	rep.e2e["peak_rss_mb"] = rss
	rep.e2e["ops_per_s"] = float64(rep.attempted) / window
	rep.fillStandIns([]standIn{{"exact_p50_ms", "rebuild_p50_ms"}})
	rep.notes = append(rep.notes, fmt.Sprintf("query tail p%g of %d reads; write tail p%g of %d writes; %d rebuilds",
		100*tailFor(nReads), qs.count(), 100*tailFor(nWrites), ws.count(), rs.count()))

	if o.trace {
		serveLayers(rep, l, before, after)
	}
	return rep, nil
}

// serveLayers derives the traced serve run's per-layer metrics from the
// /metrics scrapes taken before and after the timed window.
func serveLayers(rep *report, l *serveLoop, before, after map[string]float64) {
	L := rep.layers
	d := func(k string) float64 { return after[k] - before[k] }
	const (
		durSum   = "gossipq_http_request_duration_seconds_sum"
		durCount = "gossipq_http_request_duration_seconds_count"
		qPath    = `{path="/quantile"}`
		mPath    = `{path="/mutate"}`
	)
	qs, ws, rs := l.lat[kindQuery], l.lat[kindWrite], l.lat[kindRebuild]
	buildS := d("gossipq_snapshot_refresh_build_seconds_total")
	refreshes := d("gossipq_snapshot_refreshes_total")
	skipped := d("gossipq_snapshot_repairs_skipped_total")
	var readHandlerMs, writeHandlerMs, buildMs float64
	if n := d(durCount + qPath); n > 0 {
		readHandlerMs = d(durSum+qPath) / n * 1e3
	}
	if n := d(durCount + mPath); n > 0 {
		writeHandlerMs = (d(durSum+mPath) - buildS) / n * 1e3
	}
	if refreshes > 0 {
		buildMs = buildS / refreshes * 1e3
		L["summary.rebuild_frac"] = refreshes / (refreshes + skipped)
	}
	L["http.read_handler_us"] = readHandlerMs * 1e3
	L["http.read_outside_us"] = (qs.meanMs() - readHandlerMs) * 1e3
	L["http.write_handler_us"] = writeHandlerMs * 1e3
	L["summary.build_ms"] = buildMs
	rec, fresh := d(`gossipq_snapshot_backings_total{source="recycled"}`), d(`gossipq_snapshot_backings_total{source="fresh"}`)
	if rec+fresh > 0 {
		L["summary.recycled_frac"] = rec / (rec + fresh)
	}
	L["heap_retained_mb"] = after["go_heap_alloc_bytes"] / (1 << 20)
	L["session.fallbacks"] = d("gossipq_snapshot_fallbacks_total")
	errs := 0.0
	for k := range after {
		if strings.HasPrefix(k, "gossipq_http_errors_total") {
			errs += d(k)
		}
	}
	L["http.errors"] = errs
	rep.unattributed(kindQuery, qs.meanMs(), readHandlerMs)
	rep.unattributed(kindWrite, ws.meanMs(), writeHandlerMs)
	rep.unattributed(kindRebuild, rs.meanMs(), writeHandlerMs, buildMs)
}
