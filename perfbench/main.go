// Command perfbench is the repository's benchmark. It runs one named
// workload per process and prints, as the last line of standard output,
// one JSON object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench report [--runs 5] [--seconds 20] [--workloads a,b] [--trace]
//	perfbench selftest
//	perfbench record
//
// With --trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json; with --trace 1 they are the per-layer metrics: the
// census of one traced iteration, the microbenchmark of every layer and
// the CPU-profile split of host time per module. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hardLimit bounds one benchmark process: past it the run is reported
// as failed and the process exits, well inside the 180 s a run may take.
const hardLimit = 170 * time.Second

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark process. The watchdog goroutine may
// print it at any time, so every access goes through mu.
type run struct {
	mu      sync.Mutex
	res     result
	stage   string
	due     time.Time
	printed bool
	// ref reads the host's speed in a measured run; it is nil in
	// traced runs and the subcommands, which report raw host times.
	ref *hostRef
}

func newRun() *run {
	return &run{res: result{Correct: true, Metrics: map[string]metric{}}}
}

// set records one metric.
func (r *run) set(name, unit string, v float64) {
	r.mu.Lock()
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

// count adds operations to the attempted and failed totals.
func (r *run) count(attempted, failed int) {
	r.mu.Lock()
	r.res.Attempted += attempted
	r.res.Failed += failed
	r.mu.Unlock()
}

// wrong marks the run's outputs incorrect, with the reason on stderr.
func (r *run) wrong(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	r.res.Correct = false
	r.mu.Unlock()
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// arm starts a named stage that must end within limit. A stage that
// overruns is reported as a failed operation and ends the process.
func (r *run) arm(stage string, limit time.Duration) {
	r.mu.Lock()
	r.stage, r.due = stage, time.Now().Add(limit)
	r.mu.Unlock()
}

// print writes the result line once; later calls are no-ops.
func (r *run) print() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.printed {
		return
	}
	r.printed = true
	if r.res.Attempted < 1 {
		r.res.Attempted, r.res.Failed = 1, 1
		r.res.Correct = false
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// watch ends the process with a failed result when the armed stage or
// the whole run overruns its limit, so a hung layer never hangs the
// benchmark.
func (r *run) watch(start time.Time) {
	for range time.Tick(50 * time.Millisecond) {
		r.mu.Lock()
		stage, due := r.stage, r.due
		r.mu.Unlock()
		now := time.Now()
		over := ""
		switch {
		case now.Sub(start) > hardLimit:
			over = fmt.Sprintf("run exceeded %v (in stage %s)", hardLimit, stage)
		case !due.IsZero() && now.After(due):
			over = fmt.Sprintf("stage %s timed out", stage)
		}
		if over != "" {
			r.wrong("%s", over)
			r.count(1, 1)
			r.print()
			os.Exit(0)
		}
	}
}

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		os.Exit(subcommand(os.Args[1], os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "benchmark seed; selects the generated inputs")
	seconds := fs.Int("seconds", 30, "length of the measured phase")
	traceOn := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	census := fs.Bool("census", false, "print only the census of one iteration (self-test)")
	world := fs.Int64("world-seed", 0, "run on this world seed instead of the one --seed selects (self-test)")
	fs.Parse(os.Args[1:])

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// One process drives the workload on one core. The simulator is
	// serial; with a second P the GC's background marking runs on a
	// second CPU, whose availability a shared host varies from run to
	// run, and the measured times spread twice as wide.
	runtime.GOMAXPROCS(1)
	in := w.inputFor(*seed)
	if *world != 0 {
		in.world = *world
	}
	r := newRun()
	go r.watch(time.Now())
	fmt.Fprintf(os.Stderr, "perfbench: workload %s, seed %d (world seed %d), %ds, trace %d\n", w.name, *seed, in.world, *seconds, *traceOn)
	switch {
	case *census:
		it := runIteration(r, w, in, nil, "iteration")
		r.count(checkIteration(r, w, in, it, it, 0))
		for name, unit := range censusUnits {
			r.set(name, unit, it.census[name])
		}
	case *traceOn == 1:
		traced(r, w, in)
	default:
		measure(r, w, in, time.Duration(*seconds)*time.Second)
	}
	r.print()
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median and quantile of a sample, by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
