package main

import (
	"sync"
	"time"

	"gossipq"
	"gossipq/internal/shard"
)

// clockBase anchors every timestamp the benchmark takes; now() reads the
// monotonic clock as nanoseconds since it.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// Phase ids of the protocol phase labels the algorithms set on round events.
const (
	phT2 = iota
	phT3
	phSample
	phFlood
	phCount
	phDistribute
	phOther
	numPhases
)

func phaseID(label string) int {
	switch label {
	case "tournament2":
		return phT2
	case "tournament3":
		return phT3
	case "sample":
		return phSample
	case "flood":
		return phFlood
	case "count":
		return phCount
	case "distribute":
		return phDistribute
	}
	return phOther
}

// roundSpan is what a roundClock measured over one call into the program:
// the time from the call's start to its first round event (setup), the gaps
// between consecutive round events booked to the later event's phase, and
// the time from the last round event to the call's return (finish). In grid
// mode, the gap from one grid point's last round to the next point's first
// round is booked as between-points time instead of to a phase, and each
// point's span from its first to its last round is summed in pointNs.
type roundSpan struct {
	setupNs, finishNs  int64
	phaseNs            [numPhases]int64
	rounds             int
	points             int
	pointNs, betweenNs int64
}

func (s *roundSpan) addTo(sum *roundSpan) {
	sum.setupNs += s.setupNs
	sum.finishNs += s.finishNs
	for i := range s.phaseNs {
		sum.phaseNs[i] += s.phaseNs[i]
	}
	sum.rounds += s.rounds
	sum.points += s.points
	sum.pointNs += s.pointNs
	sum.betweenNs += s.betweenNs
}

func (s *roundSpan) tourNs() int64 { return s.phaseNs[phT2] + s.phaseNs[phT3] + s.phaseNs[phSample] }

// roundClock is the timestamping gossipq.RoundObserver the traced runs
// install on session Configs. It keeps only running sums in fixed fields,
// so observing a round never allocates. Rounds are observed on the goroutine
// running the protocol (a shard worker's, for shard builds) and read on the
// benchmark's, so the fields sit behind a mutex.
type roundClock struct {
	grid bool

	mu        sync.Mutex
	cur       roundSpan
	start     int64
	last      int64
	pointFrom int64
	prevPhase int
	seen      bool
}

func newRoundClock(grid bool) *roundClock { return &roundClock{grid: grid} }

// begin starts a span at t, the moment the benchmark called into the program.
func (c *roundClock) begin(t int64) {
	c.mu.Lock()
	c.cur = roundSpan{}
	c.start, c.seen = t, false
	c.mu.Unlock()
}

func (c *roundClock) ObserveRound(ev gossipq.RoundEvent) {
	t := now()
	ph := phaseID(ev.Phase)
	c.mu.Lock()
	switch {
	case !c.seen:
		c.cur.setupNs = t - c.start
		c.pointFrom, c.seen = t, true
		if c.grid {
			c.cur.points = 1
		}
	case c.grid && c.prevPhase == phSample && ph != phSample:
		// A new grid point starts: close the previous point's span and book
		// the gap between them apart from any phase.
		c.cur.pointNs += c.last - c.pointFrom
		c.cur.betweenNs += t - c.last
		c.cur.points++
		c.pointFrom = t
	default:
		c.cur.phaseNs[ph] += t - c.last
	}
	c.cur.rounds += ev.Rounds
	c.last, c.prevPhase = t, ph
	c.mu.Unlock()
}

// end closes the span at t, the moment the call returned, and returns it.
func (c *roundClock) end(t int64) roundSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen {
		c.cur.finishNs = t - c.last
		if c.grid {
			c.cur.pointNs += c.last - c.pointFrom
		}
	} else {
		c.cur.setupNs = t - c.start
	}
	return c.cur
}

// buildRec is one shard summary build as its worker served it.
type buildRec struct {
	start, end int64
	span       roundSpan
}

// timedBackend wraps a worker's gossipq.NewSessionBackend: it times every
// Rebuild and Apply the worker serves, keeps each build's round span from
// the shard session's roundClock, and keeps a copy of the last shipped cut
// envelope so the benchmark can time the merge on the same inputs. Records go
// to preallocated storage; the worker goroutine writes, the benchmark reads.
type timedBackend struct {
	inner shard.Backend
	clk   *roundClock

	mu       sync.Mutex
	builds   []buildRec
	applyNs  int64
	applies  int
	lastCuts []int64
	lastN    int
}

func newTimedBackend(inner shard.Backend, clk *roundClock, maxBuilds int) *timedBackend {
	return &timedBackend{inner: inner, clk: clk, builds: make([]buildRec, 0, maxBuilds), lastCuts: make([]int64, 0, 64)}
}

func (b *timedBackend) Rebuild(eps float64) ([]int64, int, uint64, error) {
	t0 := now()
	b.clk.begin(t0)
	cuts, n, gen, err := b.inner.Rebuild(eps)
	t1 := now()
	span := b.clk.end(t1)
	b.mu.Lock()
	if len(b.builds) < cap(b.builds) {
		b.builds = append(b.builds, buildRec{start: t0, end: t1, span: span})
	}
	b.lastCuts = append(b.lastCuts[:0], cuts...)
	b.lastN = n
	b.mu.Unlock()
	return cuts, n, gen, err
}

func (b *timedBackend) Apply(ops []shard.Op) (int, uint64, error) {
	t0 := now()
	n, gen, err := b.inner.Apply(ops)
	d := now() - t0
	b.mu.Lock()
	b.applyNs += d
	b.applies++
	b.mu.Unlock()
	return n, gen, err
}

func (b *timedBackend) Info() (int, uint64, uint64) { return b.inner.Info() }

// take returns the builds recorded since the last take and the apply time
// and count accumulated so far, and the last shipped envelope (copied into
// cuts).
func (b *timedBackend) take(from int, cuts []int64) (builds []buildRec, applyNs int64, applies int, outCuts []int64, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.builds[from:len(b.builds):len(b.builds)], b.applyNs, b.applies, append(cuts[:0], b.lastCuts...), b.lastN
}
