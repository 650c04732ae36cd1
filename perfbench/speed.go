package main

import (
	"container/heap"
	"math"
	"runtime"
	"time"
)

// The benchmark's host is a shared VM whose speed drifts: ten runs of
// paper-faithful, one after another, spread by a fifth, with the fast
// and the slow runs in streaks. Medians over a run's iterations filter
// the host's stalls, not its drift. So a paper-faithful run also times a
// reference of its own, a small event simulation written here that calls
// nothing of the program, and scales the run's host times by how fast
// the host ran it: a run on a slow host reads about as it would at the
// host's usual speed. The scale is the same for every host time of a
// run, so a change to the program moves the scaled times exactly as much
// as the raw ones, which go to stderr.
//
// The reference works as the simulator does: it allocates an event per
// step, keeps the pending ones on a binary heap and updates per-node
// maps, so the collector runs inside it too. Each reading builds its
// world afresh and drops it. paper-faithful takes readings before each
// version's campaign, where it drops the previous handle anyway, so the
// readings sample the host twice per iteration. A reading starts with a
// collection and ends before the program's next call, so the program
// never sees the reference's heap.
//
// paper-faithful follows the host's drift about half as much as the
// reference does, which spends all its time on the memory traffic the
// drift slows. In sets of five to ten runs taken while the host drifted,
// the log of a run's raw wall_s rose 0.44 to 0.76 times as fast as the
// log of its median reading (correlation 0.82 to 0.99). So the scale is
// the square root of the reading's ratio to the nominal one. While the
// host holds steady the readings carry only their own noise, and scaling
// widens a spread by a few points.
//
// scale-256 takes no readings and reports raw times: its storm is
// DRAM-bound, and its host time did not follow the reference's. Over
// three sets of five or ten runs, scaling left its wall_s spread at 4 to
// 17% against 3 to 9% raw, and its p99_ms spread at 6 to 35% against 6
// to 20% raw.
const (
	refNodes    = 64
	refKeys     = 1024
	refPending  = 4096
	refEvents   = 60000 // events per reading
	refReadings = 8     // readings per call of read
	// refNominalMs is the reading the scaled times assume: about the
	// median paper-faithful reading on the 2-vCPU VM the benchmark was
	// written on, so scaled times there read close to raw ones.
	refNominalMs = 30.0
	// refElasticity is how far a run's host times follow the reading.
	refElasticity = 0.5
)

// hostRef keeps the reference's readings.
type hostRef struct {
	ms []float64 // every reading so far
}

type refEvent struct {
	at   uint64
	node int
	data [4]uint64
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refSink keeps the reference's result live, so the compiler keeps its
// work.
var refSink uint64

// read collects the garbage and takes refReadings readings, each a
// fresh world from the same fixed stream, so every reading does the
// same work. A nil *hostRef reads nothing.
func (h *hostRef) read() {
	if h == nil {
		return
	}
	runtime.GC()
	for n := 0; n < refReadings; n++ {
		t := time.Now()
		refSink += refWorld()
		h.ms = append(h.ms, ms(time.Since(t)))
	}
}

func refWorld() uint64 {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	state := make([]map[uint64]uint64, refNodes)
	for i := range state {
		state[i] = map[uint64]uint64{}
	}
	q := &refQueue{}
	for i := 0; i < refPending; i++ {
		r := next()
		heap.Push(q, &refEvent{at: r >> 40, node: int(r>>7) % refNodes})
	}
	for i := 0; i < refEvents; i++ {
		e := heap.Pop(q).(*refEvent)
		k := e.at % refKeys
		state[e.node][k] += e.at
		r := next()
		heap.Push(q, &refEvent{at: e.at + r>>50, node: int(r>>9) % refNodes, data: [4]uint64{r, k}})
	}
	return uint64(len(*q)) + (*q)[0].at
}

// scale is what the run's host times are multiplied by: the nominal
// reading over the median one, to the power refElasticity. Without
// readings it is 1.
func (h *hostRef) scale() float64 {
	if h == nil || len(h.ms) == 0 {
		return 1
	}
	return math.Pow(refNominalMs/median(h.ms), refElasticity)
}
