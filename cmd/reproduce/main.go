// Command reproduce regenerates every table and figure of the paper's
// evaluation and prints them (optionally into a file suitable for
// EXPERIMENTS.md).
//
// Usage:
//
//	reproduce [-fig all|1a|1b|2|4|6|7|8|9a|9b|10|t1|t2] [-fast] [-seed N] [-o file] [-workers N]
//	          [-nodes N] [-protocol faithful|scalable]
//	reproduce -chaos [-seeds N] [-version FME] [-shrink] [-repro-dir dir] [-fast] [-gray]
//	reproduce -chaos [-snapshot file.snap | -from-snapshot file.snap] ...
//	reproduce -chaos-replay file.json
//	reproduce -bench [-bench-out BENCH_8.json] [-bench-base BENCH_7.json] [-fast]
//
// Any mode accepts -cpuprofile/-memprofile/-trace to capture a pprof CPU
// profile, a pprof allocation profile, or a runtime execution trace of
// the run (go tool pprof / go tool trace read them).
//
// -fast runs the reduced-scale profile (quarter-size document set and
// caches, shorter windows); the full profile is the paper-faithful one
// and takes considerably longer. Episodes run concurrently on the
// harness worker pool (GOMAXPROCS simulators by default); -workers
// bounds that, and -workers 1 forces serial execution — the results are
// bit-identical either way.
//
// -chaos runs a multi-fault chaos campaign instead: seeds 1..N each draw
// a deterministic fault schedule (overlapping faults, link flap, disk
// stutter), play it against the chosen version, and check the cluster
// invariant catalog. Violations are shrunk to minimal schedules and
// written as runnable repro files; the exit status is non-zero if any
// seed violates. -chaos-replay re-executes such a repro file and reports
// whether the recorded violation still reproduces.
//
// -gray widens each seed's schedule past Table 1: the partial-degradation
// classes (node-slow, link-lossy, disk-degraded), correlated multi-fault
// events (switch-takes-rack, power-event groups), and fault-during-
// recovery chases. The standing invariant catalog still judges the runs;
// the opt-in gray detection probes (gray-detected, no-false-eviction) are
// experiment instruments, not CI gates — see EXPERIMENTS.md.
//
// -snapshot warms the campaign's world once, writes the warm snapshot to
// the named file, and runs the campaign warm-forked from it (every seed
// rehydrates an independent copy instead of re-warming). -from-snapshot
// skips the warm ramp entirely and forks the campaign from a previously
// written snapshot file; the snapshot's envelope supplies the version
// and world options, so -version/-fast are ignored. Snapshot-backed
// campaigns are supported on every version from INDEP through FME.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"press"
)

func main() {
	fig := flag.String("fig", "all", "which figure/table to regenerate (comma-separated), or 'all'")
	fast := flag.Bool("fast", false, "reduced-scale profile")
	seed := flag.Int64("seed", 1, "simulation seed")
	out := flag.String("o", "", "also write output to this file")
	workers := flag.Int("workers", 0, "max concurrent simulators (0 = GOMAXPROCS, 1 = serial)")
	nodes := flag.Int("nodes", 0, "server-node count (0 = the paper's 4; other counts require -protocol scalable)")
	protocol := flag.String("protocol", "faithful", "protocol suite: faithful (paper, golden-dump identical) or scalable (gossip membership + sharded directory)")
	chaosMode := flag.Bool("chaos", false, "run a chaos campaign instead of figures")
	seeds := flag.Int("seeds", 8, "chaos: number of campaign seeds (1..N)")
	version := flag.String("version", string(press.FME), "chaos: version to bombard")
	shrink := flag.Bool("shrink", true, "chaos: shrink violating schedules before writing repros")
	reproDir := flag.String("repro-dir", ".", "chaos: directory for violation repro files")
	replay := flag.String("chaos-replay", "", "replay a chaos repro file and exit")
	gray := flag.Bool("gray", false, "chaos: add gray faults, correlated groups and recovery chases to every seed's schedule")
	snapOut := flag.String("snapshot", "", "chaos: warm once, write the warm snapshot here, fork the campaign from it")
	snapIn := flag.String("from-snapshot", "", "chaos: fork the campaign from this snapshot file instead of warming")
	bench := flag.Bool("bench", false, "run the kernel/episode/campaign benchmark and write a JSON baseline")
	benchOut := flag.String("bench-out", "BENCH_8.json", "bench: output path for the JSON baseline")
	benchBase := flag.String("bench-base", "BENCH_7.json", "bench: prior baseline to embed a comparison against (absent file = no comparison)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected mode to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	traceFlag := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	stopProf, err := startProfiling(*cpuprofile, *memprofile, *traceFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	exit := func(code int) {
		stopProf()
		os.Exit(code)
	}

	if *workers > 0 {
		press.SetGlobalWorkers(*workers)
	}

	suite, err := press.ParseProtocolSuite(*protocol)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	if *nodes < 0 {
		fmt.Fprintf(os.Stderr, "-nodes %d: the server-node count must be positive (0 = the paper's 4)\n", *nodes)
		exit(2)
	}
	if *nodes != 0 && *nodes != 4 && suite != press.Scalable {
		fmt.Fprintf(os.Stderr, "-nodes %d needs -protocol scalable: the faithful suite's broadcast directory and all-pairs announce traffic are the paper's 4-node protocols and do not scale\n", *nodes)
		exit(2)
	}
	topo := func(o press.Options) press.Options {
		o.Nodes = *nodes
		o.Protocol = suite
		if suite == press.Scalable && *nodes > 4 && o.Rate == 0 {
			// The 90%-of-saturation probe is a 4-node instrument: at wide
			// scale the cold-cache overload it applies splinters the
			// cluster before it warms and measures zero. Load scalable
			// topologies at the explicit per-node rate the scale tests
			// and the bench curve use, with their shortened warmup.
			o.Rate = 40 * float64(*nodes)
			o.Warmup = time.Minute
		}
		return o
	}

	if *replay != "" {
		exit(replayRepro(*replay))
	}
	if *bench {
		exit(runBench(*fast, *seed, *benchOut, *benchBase))
	}
	if *chaosMode {
		exit(runChaosCampaign(press.Version(*version), *seeds, *fast, *seed, *shrink, *gray, *reproDir, *snapOut, *snapIn, topo))
	}

	var o press.Options
	var fg *press.Figures
	if *fast {
		o = topo(press.FastOptions(*seed))
		fg = press.NewFigures(o)
		fg.Sched = press.FastSchedule()
	} else {
		o = topo(press.Options{Seed: *seed})
		fg = press.NewFigures(o)
	}

	gens := []struct {
		key string
		fn  func() (press.Table, error)
	}{
		{"t1", fg.Table1},
		{"1a", fg.Figure1a},
		{"1b", fg.Figure1b},
		{"2", fg.Figure2},
		{"4", fg.Figure4},
		{"6", fg.Figure6},
		{"7", fg.Figure7},
		{"8", fg.Figure8},
		{"9a", fg.Figure9a},
		{"9b", fg.Figure9b},
		{"10", fg.Figure10},
		{"t2", fg.Table2},
	}

	want := map[string]bool{}
	if *fig != "all" {
		for _, k := range strings.Split(*fig, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}

	var sink *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		sink = f
	}
	emit := func(s string) {
		fmt.Print(s)
		if sink != nil {
			fmt.Fprint(sink, s)
		}
	}

	emit(fmt.Sprintf("# Reproduction run: seed=%d fast=%v workers=%d started %s\n\n",
		*seed, *fast, press.GlobalWorkers(), time.Now().Format(time.RFC3339)))
	for _, g := range gens {
		if *fig != "all" && !want[g.key] {
			continue
		}
		start := time.Now()
		tab, err := g.fn()
		if err != nil {
			emit(fmt.Sprintf("!! %s failed: %v\n\n", g.key, err))
			continue
		}
		emit(tab.String())
		emit(fmt.Sprintf("(generated in %.1fs)\n\n", time.Since(start).Seconds()))
	}
	stopProf()
}

// runChaosCampaign executes the -chaos mode and returns the exit code:
// 0 when every seed satisfies the invariant catalog, 1 otherwise (with a
// repro file written per violating seed). A non-empty snapOut or snapIn
// switches to the warm-fork path: one warmed world is captured (or read
// from snapIn) and every seed forks an independent copy of it.
func runChaosCampaign(v press.Version, nSeeds int, fast bool, seed int64, shrink, gray bool, reproDir, snapOut, snapIn string, topo func(press.Options) press.Options) int {
	var o press.Options
	if fast {
		o = topo(press.FastOptions(seed))
	} else {
		o = topo(press.Options{Seed: seed})
	}
	cfg := press.ChaosCampaignConfig{
		Seeds:  press.ChaosSeeds(nSeeds),
		Shrink: shrink,
	}
	if gray {
		// One expected correlated event and a one-in-four recovery chase
		// per steady fault: enough to land multi-component and fault-
		// during-recovery scenarios in most seeds without swamping the
		// Table 1 draw the seeds were calibrated on.
		cfg.Gen = press.ChaosGenConfig{Gray: true, Correlated: 1, RecoveryChase: 0.25}
		fmt.Println("gray engine on: partial-degradation classes + correlated groups + recovery chases")
	}
	start := time.Now()
	var sum press.ChaosCampaignSummary
	switch {
	case snapIn != "":
		data, err := os.ReadFile(snapIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		snap, err := press.LoadSnapshot(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("forking campaign from %s: %s @ %s (%d bytes, hash %.12s)\n",
			snapIn, snap.Version, snap.At, snap.Size(), snap.Hash())
		if sum, err = press.RunChaosCampaignFromSnapshot(snap, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	case snapOut != "":
		snap, err := press.WarmChaosSnapshot(v, o, press.ChaosRunConfig{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := os.WriteFile(snapOut, snap.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("wrote %s: %s @ %s (%d bytes, hash %.12s)\n",
			snapOut, snap.Version, snap.At, snap.Size(), snap.Hash())
		if sum, err = press.RunChaosCampaignFromSnapshot(snap, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	default:
		sum = press.RunChaosCampaign(v, o, cfg)
	}
	fmt.Printf("%s(campaign took %.1fs)\n", sum, time.Since(start).Seconds())

	code := 0
	for _, oc := range sum.Outcomes {
		if !oc.Violated() {
			continue
		}
		code = 1
		if oc.Err != nil {
			continue // already reported in the summary
		}
		sched, viol := oc.Schedule, oc.Violations[0]
		if len(oc.Minimal) > 0 {
			sched, viol = oc.Minimal, oc.MinimalViol
		}
		rep := press.NewChaosRepro(v, oc.Options, press.ChaosRunConfig{}, sched, viol)
		data, err := rep.Marshal()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		name := fmt.Sprintf("%s/chaos-repro-%s-seed%d-%s.json", reproDir, v, oc.Seed, rep.Hash)
		if err := os.WriteFile(name, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		fmt.Printf("wrote %s (%s)\n", name, viol)
	}
	return code
}

// replayRepro executes the -chaos-replay mode: 0 when the recorded
// violation reproduces, 2 when the run is now clean (the repro went
// stale), 1 on errors.
func replayRepro(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rep, err := press.LoadChaosRepro(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("replaying %s on %s: %d-entry schedule (hash %s), recorded violation %q\n",
		path, rep.Version, len(rep.Schedule), rep.Hash, rep.Violated)
	fmt.Print(rep.Schedule)
	res, viols, err := rep.Replay(press.ChaosInvariants())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("availability=%.5f floor=%.5f reintegrated=%v resets=%d\n",
		res.Availability, res.Floor, res.Reintegrated, res.Resets)
	for _, viol := range viols {
		fmt.Printf("violated %s\n", viol)
		if viol.Invariant == rep.Violated {
			fmt.Println("recorded violation REPRODUCED")
			return 0
		}
	}
	if rep.Violated == "" {
		return 0
	}
	fmt.Printf("recorded violation %q did NOT reproduce (%d other violations)\n", rep.Violated, len(viols))
	return 2
}
