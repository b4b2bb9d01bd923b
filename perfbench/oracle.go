package main

import (
	"hash/fnv"
	"math"
	"math/bits"
	"slices"
	"sort"

	"gossipq"
	"gossipq/internal/stats"
)

// oracle is the checker's exact view of a population that changes by
// inserts, deletes and updates. A mirror of the values keeps the program's
// index semantics (swap-remove deletes, as Session.Mutate applies them), and
// a Fenwick tree of counts over every value that can ever be present answers
// rank and k-th-smallest queries in O(log n), so replaying a whole run's op
// log costs O(log n) per answer rather than a sort per population state.
// Rank conventions follow internal/stats: ranks are 1-based, the φ-quantile
// is the ⌈φn⌉-smallest value.
type oracle struct {
	universe []int64 // sorted distinct values the population can hold
	tree     []int32 // Fenwick counts over universe, 1-based
	mirror   []int64 // index -> value
	top      int     // highest power of two <= len(universe)
}

// newOracle loads initial, with room for every value the op plan's
// mutations will write.
func newOracle(initial []int64, batches [][]gossipq.Mutation) *oracle {
	u := slices.Clone(initial)
	for _, b := range batches {
		for _, m := range b {
			if m.Op != gossipq.OpDelete {
				u = append(u, m.Value)
			}
		}
	}
	slices.Sort(u)
	u = slices.Compact(u)
	o := &oracle{universe: u, tree: make([]int32, len(u)+1), mirror: slices.Clone(initial),
		top: 1 << (bits.Len(uint(len(u))) - 1)}
	for _, v := range initial {
		o.add(v, 1)
	}
	return o
}

func (o *oracle) n() int { return len(o.mirror) }

func (o *oracle) add(v int64, d int32) {
	i, found := slices.BinarySearch(o.universe, v)
	if !found {
		panic("perfbench: oracle value outside the planned universe")
	}
	for i++; i < len(o.tree); i += i & -i {
		o.tree[i] += d
	}
}

// prefix returns the number of present values among universe[:i].
func (o *oracle) prefix(i int) int {
	s := 0
	for ; i > 0; i -= i & -i {
		s += int(o.tree[i])
	}
	return s
}

// rank returns the number of values <= x; strictRank the number < x.
func (o *oracle) rank(x int64) int {
	return o.prefix(sort.Search(len(o.universe), func(i int) bool { return o.universe[i] > x }))
}

func (o *oracle) strictRank(x int64) int {
	return o.prefix(sort.Search(len(o.universe), func(i int) bool { return o.universe[i] >= x }))
}

// kth returns the value of 1-based rank k (Fenwick binary lifting).
func (o *oracle) kth(k int) int64 {
	pos := 0
	for step := o.top; step > 0; step /= 2 {
		if next := pos + step; next < len(o.tree) && int(o.tree[next]) < k {
			pos = next
			k -= int(o.tree[next])
		}
	}
	return o.universe[pos]
}

// exactQuantile is the ⌈φn⌉-smallest present value.
func (o *oracle) exactQuantile(phi float64) int64 {
	return o.kth(stats.TargetRank(phi, o.n()))
}

// withinEps is stats.Oracle.WithinEpsilon over the current population: some
// achievable rank of x lies within [⌈(φ-ε)n⌉, ⌈(φ+ε)n⌉], with the same
// one-rank rounding slack.
func (o *oracle) withinEps(x int64, phi, eps float64) bool {
	n := float64(o.n())
	loRank := float64(o.strictRank(x) + 1)
	hiRank := float64(o.rank(x))
	lo := math.Floor((phi-eps)*n) - 1
	hi := math.Ceil((phi+eps)*n) + 1
	return hiRank >= lo && loRank <= hi
}

// apply performs one mutation with Session.Mutate's semantics. The batch
// was valid when planned, and the program accepted it.
func (o *oracle) apply(m gossipq.Mutation) {
	switch m.Op {
	case gossipq.OpInsert:
		o.mirror = append(o.mirror, m.Value)
		o.add(m.Value, 1)
	case gossipq.OpDelete:
		o.add(o.mirror[m.Index], -1)
		last := len(o.mirror) - 1
		o.mirror[m.Index] = o.mirror[last]
		o.mirror = o.mirror[:last]
	case gossipq.OpUpdate:
		o.add(o.mirror[m.Index], -1)
		o.mirror[m.Index] = m.Value
		o.add(m.Value, 1)
	}
}

// opRec is one entry of a run's answer log, written during the timed
// window into a preallocated slice and checked after it. A record stands for
// ops timed operations that all returned value; bad counts further ops of
// the record that already failed at the program (an error, a refusal, a
// wrong serving mode, or a value other than the record's).
type opRec struct {
	kind    uint8
	phi     float64
	eps     float64
	value   int64
	version uint64 // snapshot version that served a read, or the one a write left
	batch   int32  // writes: index into the plan's mutation batches
	ops     int32
	bad     int32
}

// corrupt replaces a read's value with the end of the value range far from
// its target, an answer no width accepts (the smoke tests' deliberately
// wrong answer).
func (r *opRec) corrupt() {
	if r.phi < 0.5 {
		r.value = math.MaxInt64
	} else {
		r.value = math.MinInt64
	}
}

// corruptRead corrupts the first read record at or after log index from, if
// from >= 0. Workloads call it after the timed window.
func corruptRead(log []opRec, from int) {
	if from < 0 {
		return
	}
	for i := from; i < len(log); i++ {
		if log[i].kind == kindQuery {
			log[i].corrupt()
			return
		}
	}
}

// checkLog replays log against o, which must hold the population the run
// started from. Reads are checked against the population as of their place
// in the log: exact answers must equal the oracle's value, approximate and
// snapshot answers must lie within ±εn. Writes are applied to the oracle
// unless the program rejected them. It returns the number of failed ops and
// a digest of every answer, so two runs of one seed can be shown to have
// done identical work.
func checkLog(o *oracle, log []opRec, batches [][]gossipq.Mutation) (failed int, digest uint64) {
	h := fnv.New64a()
	var buf [8 * 3]byte
	put := func(i int, v uint64) {
		for b := 0; b < 8; b++ {
			buf[i*8+b] = byte(v >> (8 * b))
		}
	}
	for _, r := range log {
		failed += int(r.bad)
		put(0, uint64(r.kind))
		put(1, uint64(r.value))
		put(2, r.version)
		h.Write(buf[:])
		switch r.kind {
		case kindQuery:
			if r.ops > 0 && !o.withinEps(r.value, r.phi, r.eps) {
				failed += int(r.ops)
			}
		case kindExact:
			if r.ops > 0 && o.exactQuantile(r.phi) != r.value {
				failed += int(r.ops)
			}
		case kindWrite, kindRebuild:
			if r.bad == 0 {
				for _, m := range batches[r.batch] {
					o.apply(m)
				}
			}
		}
	}
	return failed, h.Sum64()
}
