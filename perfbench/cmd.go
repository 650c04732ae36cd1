package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// censusUnits lists every census metric a traced run reports. A workload
// whose public counters cannot reach a count reports 0 for it (see
// README.md).
var censusUnits = map[string]string{
	"sim.events":                    "count",
	"sim.max_queued":                "count",
	"simdisk.reads":                 "count",
	"server.served":                 "count",
	"server.local_hit_frac":         "ratio",
	"server.forwards_per_request":   "ratio",
	"server.disk_reads_per_request": "ratio",
	"frontend.relayed":              "count",
	"workload.offered":              "count",
	"workload.succeeded":            "count",
	"workload.failed":               "count",
	"metrics.log_events":            "count",
	"chaos.violations":              "count",
}

// traced runs the warm-up iteration, one untraced and one traced
// iteration of the workload, then every layer's microbenchmark. The
// traced iteration records spans around each call into the program and
// a CPU profile whose self time is split per module; its wall time minus
// the untraced one is the tracing overhead.
func traced(r *run, w workload, in input) {
	its := []iteration{runIteration(r, w, in, nil, "warm-up iteration")}
	u := runIteration(r, w, in, nil, "untraced iteration")
	its = append(its, u)

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		r.wrong("cpu profile: %v", err)
	}
	gc0, cpu0 := gcCPU()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := runIteration(r, w, in, tr, "traced iteration")
	runtime.ReadMemStats(&m1)
	gc1, cpu1 := gcCPU()
	pprof.StopCPUProfile()
	tr.finish()
	its = append(its, t)

	for i, it := range its {
		r.count(checkIteration(r, w, in, it, its[0], i))
	}

	r.arm("cpu profile split", 60*time.Second)
	layers, err := layerSplit(prof.Bytes(), fmt.Sprintf("perfbench/out/cpu-%s-seed%d.pprof", w.name, in.seed))
	if err != nil {
		r.wrong("cpu profile: %v", err)
	}
	path, err := tr.write("perfbench/out", w.name, in.seed, layers)
	if err != nil {
		r.wrong("writing spans: %v", err)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	}
	for _, m := range layerModules {
		r.set("layer."+m+".self_frac", "ratio", layers[m])
	}
	for name, unit := range censusUnits {
		r.set(name, unit, t.census[name])
	}
	r.set("trace.overhead_s", "s", t.wall-u.wall)
	r.set("trace.spans", "count", float64(len(tr.spans)))
	if cpu1 > cpu0 {
		r.set("runtime.gc_cpu_frac", "ratio", (gc1-gc0)/(cpu1-cpu0))
	} else {
		r.set("runtime.gc_cpu_frac", "ratio", 0)
	}
	r.set("runtime.allocs_per_op", "count", float64(m1.Mallocs-m0.Mallocs)/float64(max(len(t.ops), 1)))
	micro(r)
}

// gcCPU reads the GC's and the whole process's CPU seconds so far.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// subcommand runs report, selftest or record and returns the exit code.
func subcommand(name string, args []string) int {
	switch name {
	case "report":
		return report(args)
	case "selftest":
		return selftest()
	case "record":
		return record()
	}
	fmt.Fprintf(os.Stderr, "perfbench: unknown subcommand %q (have report, selftest, record)\n", name)
	return 2
}

// child runs this binary once with args under the per-run hard timeout
// and returns its parsed result line.
func child(args ...string) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%v: %v\n%s", args, err, stderr.String())
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			last = l
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("%v: result line %q: %v", args, last, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%v: outputs incorrect\n%s", args, stderr.String())
	}
	return res, nil
}

// report runs every workload several times, one process per run, and
// prints each metric's median, quartiles and spread (interquartile
// range over median). Traced reports also check that runs on the same
// world seed give an identical census.
func report(args []string) int {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	runs := fs.Int("runs", 5, "runs per workload, on seeds seed0 .. seed0+runs-1")
	seed0 := fs.Int64("seed0", 1, "first seed")
	seconds := fs.Int("seconds", 30, "measured seconds per run")
	names := fs.String("workloads", strings.Join(workloadNames(), ","), "comma-separated workloads")
	traceOn := fs.Bool("trace", false, "report the per-layer metrics of traced runs")
	fs.Parse(args)
	code := 0
	for _, name := range strings.Split(*names, ",") {
		w, ok := workloadByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
			return 2
		}
		values := map[string][]float64{}
		units := map[string]string{}
		census := map[int64]map[string]float64{}
		attempted, failed := 0, 0
		for i := 0; i < *runs; i++ {
			seed := *seed0 + int64(i)
			res, err := child("--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(*seconds),
				"--trace", map[bool]string{false: "0", true: "1"}[*traceOn])
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				code = 1
			}
			attempted += res.Attempted
			failed += res.Failed
			if m, ok := res.Metrics["wall_s"]; ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: wall_s %.4g\n", w.name, seed, m.Value)
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			if *traceOn {
				c := map[string]float64{}
				for k := range censusUnits {
					c[k] = res.Metrics[k].Value
				}
				ws := w.inputFor(seed).world
				if prev, ok := census[ws]; ok {
					if d := censusDiff(prev, c); d != "" {
						fmt.Fprintf(os.Stderr, "perfbench: %s census differs between runs on world seed %d: %s\n", w.name, ws, d)
						code = 1
					}
				}
				census[ws] = c
			}
		}
		fmt.Printf("\n%s: %d runs of %ds, %d operations attempted, %d failed\n", w.name, *runs, *seconds, attempted, failed)
		fmt.Printf("  %-44s %-6s %14s %14s %14s %7s\n", "metric", "unit", "median", "q1", "q3", "spread")
		for _, k := range sortedKeys(values) {
			q := pyQuartiles(values[k])
			med := median(values[k])
			spread := 0.0
			if med != 0 {
				spread = (q[2] - q[0]) / med
			}
			fmt.Printf("  %-44s %-6s %14.6g %14.6g %14.6g %6.1f%%\n", k, units[k], med, q[0], q[2], 100*spread)
		}
	}
	return code
}

// pyQuartiles matches Python's statistics.quantiles(xs, n=4), whose
// default "exclusive" method the spread rule of BENCHMARK.json uses.
func pyQuartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			q = [3]float64{s[0], s[0], s[0]}
		}
		return q
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// selftest checks, one process per run, that every deterministic
// workload gives an identical census on two runs with the same seed,
// and that it passes its output check on the held-out world seed.
func selftest() int {
	code := 0
	for _, w := range workloads {
		a, errA := child("--workload", w.name, "--seed", "1", "--census")
		b, errB := child("--workload", w.name, "--seed", "1", "--census")
		_, errH := child("--workload", w.name, "--world-seed", strconv.Itoa(heldOutSeed), "--census")
		verdict := "ok"
		for _, err := range []error{errA, errB, errH} {
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				verdict = "FAIL"
			}
		}
		ca, cb := map[string]float64{}, map[string]float64{}
		for k, m := range a.Metrics {
			ca[k] = m.Value
		}
		for k, m := range b.Metrics {
			cb[k] = m.Value
		}
		if d := censusDiff(ca, cb); d != "" || len(ca) == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s census differs between two runs on seed 1: %s\n", w.name, d)
			verdict = "FAIL"
		}
		if verdict != "ok" {
			code = 1
		}
		fmt.Printf("%-16s census repeatable on seed 1 (%d counts), held-out world seed %d checked: %s\n",
			w.name, len(ca), heldOutSeed, verdict)
	}
	return code
}

// expectedPath is expected.json relative to the root of the checkout,
// where the benchmark runs; the build embeds it.
const expectedPath = "perfbench/expected.json"

// record runs one iteration of every deterministic workload on every
// recorded world seed and writes the outputs to expected.json.
func record() int {
	rec := recorded{}
	r := newRun()
	for _, w := range workloads {
		rec[w.name] = map[string]map[string]any{}
		for _, ws := range append(append([]int64(nil), w.worlds...), heldOutSeed) {
			fmt.Fprintf(os.Stderr, "perfbench: recording %s world seed %d\n", w.name, ws)
			it := w.iterate(r, input{world: ws, seed: ws}, nil)
			rec[w.name][strconv.FormatInt(ws, 10)] = it.outputs
		}
	}
	if !r.res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: a workload failed; nothing recorded")
		return 1
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.WriteFile(expectedPath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("recorded outputs written to %s\n", expectedPath)
	return 0
}
