package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// iteration is what one pass of a workload measured.
type iteration struct {
	setups    [][]float64 // host milliseconds of each operation of each set-up
	wall      float64     // host seconds of the measured phase
	ops       []float64   // host milliseconds of each operation in the measured phase
	attempted int
	failed    int
	census    map[string]float64 // deterministic counts read from public counters
	outputs   map[string]any     // values checked against expected.json
}

func newIteration() iteration {
	return iteration{census: map[string]float64{}, outputs: map[string]any{}}
}

// op records one operation that took d of host time.
func (it *iteration) op(d time.Duration, failed bool) {
	it.ops = append(it.ops, ms(d))
	it.attempted++
	if failed {
		it.failed++
	}
}

// newSetup starts another set-up of the world. A workload whose set-up
// is short next to its measured phase sets up more than once per
// iteration, so the run has enough set-up samples.
func (it *iteration) newSetup() {
	it.setups = append(it.setups, nil)
}

// setupOp records one operation of the current set-up that took d of
// host time.
func (it *iteration) setupOp(d time.Duration) {
	if len(it.setups) == 0 {
		it.newSetup()
	}
	last := &it.setups[len(it.setups)-1]
	*last = append(*last, ms(d))
}

// setupSeconds is the host time of each of the iteration's set-ups.
func (it *iteration) setupSeconds() []float64 {
	var xs []float64
	for _, ops := range it.setups {
		sum := 0.0
		for _, op := range ops {
			sum += op
		}
		xs = append(xs, sum/1000)
	}
	return xs
}

// input is what the benchmark seed generates for one run.
type input struct {
	world int64 // simulation world seed
	seed  int64 // the benchmark seed itself, for inputs other than the world
}

// workload is one named set of inputs. Every workload is deterministic:
// its census and outputs repeat exactly.
type workload struct {
	name string
	// worlds are the world seeds with outputs recorded in expected.json
	// that the benchmark seed selects among.
	worlds []int64
	// iterate runs one set-up plus measured phase; tr is nil when
	// tracing is off.
	iterate func(r *run, in input, tr *tracer) iteration
	// warm, if set, pays the process's one-time costs before a measured
	// run, in less time than the full iteration that warms up the
	// others.
	warm func(r *run, in input)
}

// inputFor maps the benchmark seed onto a recorded world (seed mod the
// number of worlds), so every run checks its outputs exactly; the same
// seed always gives the same input.
func (w workload) inputFor(seed int64) input {
	n := int64(len(w.worlds))
	return input{world: w.worlds[((seed%n)+n)%n], seed: seed}
}

// heldOutSeed is a world recorded in expected.json that no benchmark
// seed selects; only the self-test runs it.
const heldOutSeed = 7

var workloads = []workload{
	// One world: the campaigns of different worlds differ by up to a
	// quarter in host time, more than any bound allows. The seed orders
	// the episodes instead, which the output check shows changes nothing.
	{name: "paper-faithful", worlds: []int64{1}, iterate: paperFaithful, warm: paperFaithfulWarm},
	{name: "scale-256", worlds: []int64{1, 2, 3}, iterate: scale256},
	{name: "warm-fork", worlds: []int64{1, 2, 3}, iterate: warmFork},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// iterLimit bounds one iteration of any workload.
const iterLimit = 90 * time.Second

// minIterations is the fewest measured iterations a run makes, so every
// per-operation median is taken over at least three samples.
const minIterations = 3

// measure warms up untimed, since a process's first pass runs up to half
// again as long, with the workload's warm function or else one full
// iteration. It then runs iterations until the next one would overrun
// the measured budget, and reports the end-to-end metrics. Every
// iteration repeats the same operations, so each operation's time is
// taken as its median over the iterations, which filters the host's
// transient stalls: wall_s and
// setup_s are the sums of those medians plus the median time outside
// operations, and p50_ms and p99_ms are percentiles over the measured
// phase's per-operation medians. Set-up operations take their medians
// over every set-up but the process's first, so a warm-up iteration's
// later set-ups count too.
func measure(r *run, w workload, in input, budget time.Duration) {
	var first iteration // the census every later iteration must repeat
	attempted, failed := 0, 0
	var setups []float64
	var setupOps [][]float64
	if w.warm != nil {
		runtime.GC()
		r.arm(w.name+" warm-up", iterLimit)
		w.warm(r, in)
	} else {
		first = runIteration(r, w, in, nil, "warm-up iteration")
		attempted, failed = checkIteration(r, w, in, first, first, 0)
		if len(first.setups) > 1 {
			setups, setupOps = first.setupSeconds()[1:], first.setups[1:]
		}
	}
	r.ref = &hostRef{}
	var its []iteration
	t0 := time.Now()
	var last time.Duration
	for {
		el := time.Since(t0)
		// After minIterations, start another iteration unless it would
		// overrun the budget by more than half an iteration.
		if len(its) >= minIterations && el+last/2 > budget {
			break
		}
		s := time.Now()
		it := runIteration(r, w, in, nil, "iteration")
		if len(its) == 0 && w.warm != nil {
			first = it
		}
		its = append(its, it)
		last = time.Since(s)
		fmt.Fprintf(os.Stderr, "perfbench: iteration %d: wall %.3fs, set-up %.3fs\n", len(its), it.wall, it.setupSeconds())
	}
	r.arm("report", 10*time.Second)

	var walls []float64
	var ops [][]float64
	for i, it := range its {
		walls = append(walls, it.wall)
		ops = append(ops, it.ops)
		setups = append(setups, it.setupSeconds()...)
		setupOps = append(setupOps, it.setups...)
		a, f := checkIteration(r, w, in, it, first, i+1)
		attempted += a
		failed += f
	}
	wall, opMeds := operationMedians(walls, ops)
	setup, _ := operationMedians(setups, setupOps)
	r.count(attempted, failed)
	fmt.Fprintf(os.Stderr, "perfbench: %d measured iterations, %d of %d operations failed\n", len(its), failed, attempted)
	k := r.ref.scale()
	if len(r.ref.ms) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: reference %.4f ms (median of %d), scale %.4f; raw wall_s %.4f, setup_s %.4f, p50_ms %.4f, p99_ms %.4f\n",
			median(r.ref.ms), len(r.ref.ms), k, wall, setup, quantile(opMeds, 0.50), quantile(opMeds, 0.99))
	}
	r.set("wall_s", "s", k*wall)
	r.set("setup_s", "s", k*setup)
	r.set("p50_ms", "ms", k*quantile(opMeds, 0.50))
	r.set("p99_ms", "ms", k*quantile(opMeds, 0.99))
	r.set("peak_rss_mb", "MB", peakRSSMB())
	r.set("ok_frac", "ratio", 1-float64(failed)/float64(attempted))
}

// runIteration runs one iteration under the iteration time limit, after
// collecting the previous iteration's world, so one world at a time is
// live and the peak RSS is that of one world.
func runIteration(r *run, w workload, in input, tr *tracer, what string) iteration {
	runtime.GC()
	r.arm(w.name+" "+what, iterLimit)
	defer tr.begin(what)()
	return w.iterate(r, in, tr)
}

// operationMedians takes, for a phase that every iteration repeats, each
// operation's median host time over the iterations (totals in seconds,
// ops in milliseconds). It returns their sum plus the median time the
// iterations spent outside operations, in seconds, and the per-operation
// medians in milliseconds. An iteration that stopped early (a failed
// run) adds no sample to the operations it did not reach.
func operationMedians(totals []float64, ops [][]float64) (sum float64, meds []float64) {
	var rest []float64
	n := 0
	for i, total := range totals {
		inside := 0.0
		for _, op := range ops[i] {
			inside += op
		}
		rest = append(rest, total-inside/1000)
		n = max(n, len(ops[i]))
	}
	sum = median(rest)
	for k := 0; k < n; k++ {
		var xs []float64
		for _, it := range ops {
			if k < len(it) {
				xs = append(xs, it[k])
			}
		}
		meds = append(meds, median(xs))
		sum += meds[k] / 1000
	}
	return sum, meds
}

// checkIteration compares an iteration's outputs with the recorded
// values and its census with the first iteration's. It returns the
// operations attempted and failed: the iteration's operations plus one
// for the check. A mismatch fails every one of them, so a wrong output
// shows in ok_frac however many operations the iteration has.
func checkIteration(r *run, w workload, in input, it, first iteration, i int) (attempted, failed int) {
	attempted, failed = it.attempted+1, it.failed
	if err := checkOutputs(w.name, in.world, it.outputs); err != nil {
		r.wrong("%s world seed %d iteration %d: %v", w.name, in.world, i, err)
		failed = attempted
	}
	if i > 0 {
		if d := censusDiff(first.census, it.census); d != "" {
			r.wrong("%s iteration %d census differs from the first: %s", w.name, i, d)
			failed = attempted
		}
	}
	return attempted, failed
}

// censusDiff names the first key whose value differs, or "".
func censusDiff(a, b map[string]float64) string {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var ks []string
	for k := range keys {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	for _, k := range ks {
		if a[k] != b[k] {
			return fmt.Sprintf("%s: %v vs %v", k, a[k], b[k])
		}
	}
	return ""
}

// expectedJSON holds the recorded outputs of every simulator workload
// per world seed: {"workload": {"seed": {"output": value}}}. Re-record
// it with `perfbench record` when a change alters simulated behaviour on
// purpose, and say so in the change.
//
//go:embed expected.json
var expectedJSON []byte

type recorded map[string]map[string]map[string]any

func loadExpected() recorded {
	var e recorded
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: expected.json:", err)
		os.Exit(1)
	}
	return e
}

// checkOutputs compares outputs with the values recorded for (workload,
// world seed). Every recorded key must be present and equal; floats
// compare to a relative 1e-12, which only formatting can disturb.
func checkOutputs(name string, ws int64, outputs map[string]any) error {
	want, ok := loadExpected()[name][strconv.FormatInt(ws, 10)]
	if !ok {
		return fmt.Errorf("no outputs recorded for world seed %d", ws)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		got, ok := outputs[k]
		if !ok {
			return fmt.Errorf("output %s missing", k)
		}
		if !sameOutput(want[k], got) {
			return fmt.Errorf("output %s = %v, recorded %v", k, got, want[k])
		}
	}
	return nil
}

func sameOutput(want, got any) bool {
	wf, wok := want.(float64)
	gf, gok := toFloat(got)
	if wok && gok {
		return wf == gf || math.Abs(wf-gf) <= 1e-12*math.Max(math.Abs(wf), math.Abs(gf))
	}
	return fmt.Sprint(want) == fmt.Sprint(got)
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	case uint64:
		return float64(x), true
	}
	return 0, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
