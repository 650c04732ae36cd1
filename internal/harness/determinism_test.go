package harness

import (
	"bytes"
	"testing"
	"time"

	"press/internal/avail"
	"press/internal/faults"
)

// TestParallelDeterminism is the engine's core regression test: the same
// episode set, run serially and through a 4-worker pool, must produce
// bit-identical templates, markers and throughput numbers. Both passes
// bypass the memo, so this really re-simulates every episode twice.
func TestParallelDeterminism(t *testing.T) {
	o := FastOptions(1)
	sched := FastSchedule()
	specs := faults.Table1(serverCount(VCOOP, o.withDefaults()), 2, versionTraits(VCOOP).fe)
	if testing.Short() {
		specs = specs[:3]
	}
	// Prewarm the shared saturation probe so both passes time episodes only.
	Saturation(VCOOP, o)

	start := time.Now()
	serial, err := defaultEngine.episodesUncached(VCOOP, o, specs, sched, 1)
	if err != nil {
		t.Fatal(err)
	}
	serialDur := time.Since(start)

	start = time.Now()
	pooled, err := defaultEngine.episodesUncached(VCOOP, o, specs, sched, 4)
	if err != nil {
		t.Fatal(err)
	}
	pooledDur := time.Since(start)
	t.Logf("%d episodes: serial %.2fs, pooled(4) %.2fs (%.2fx)",
		len(specs), serialDur.Seconds(), pooledDur.Seconds(), serialDur.Seconds()/pooledDur.Seconds())

	for i, spec := range specs {
		if serial[i].Tpl != pooled[i].Tpl {
			t.Errorf("%v: template differs between serial and pooled runs:\nserial: %v\npooled: %v",
				spec.Type, serial[i].Tpl, pooled[i].Tpl)
		}
		if serial[i].Markers != pooled[i].Markers {
			t.Errorf("%v: stage boundaries differ:\nserial: %+v\npooled: %+v",
				spec.Type, serial[i].Markers, pooled[i].Markers)
		}
		if serial[i].Normal != pooled[i].Normal || serial[i].Offered != pooled[i].Offered {
			t.Errorf("%v: normal/offered differ: serial (%v, %v) pooled (%v, %v)",
				spec.Type, serial[i].Normal, serial[i].Offered, pooled[i].Normal, pooled[i].Offered)
		}
	}
}

// TestCampaignReplayByteIdentical is the whole-pipeline determinism
// regression the availlint suite exists to protect: the same campaign,
// simulated twice (memo bypassed, 4-way pool active both times), must
// serialize to byte-identical output, events and all. A single unordered
// map range or stray RNG draw anywhere in the pipeline flips this test.
func TestCampaignReplayByteIdentical(t *testing.T) {
	o := FastOptions(1)
	sched := FastSchedule()
	specs := faults.Table1(serverCount(VCOOP, o.withDefaults()), 2, versionTraits(VCOOP).fe)
	if testing.Short() {
		specs = specs[:3] // keep the -short tier under a minute
	}
	Saturation(VCOOP, o) // resolve the shared load probe outside the timed passes
	runOnce := func() []byte {
		eps, err := defaultEngine.episodesUncached(VCOOP, o, specs, sched, 4)
		if err != nil {
			t.Fatal(err)
		}
		camp := CampaignResult{Version: VCOOP, Opts: o}
		for i, ep := range eps {
			camp.Eps = append(camp.Eps, ep)
			camp.Loads = append(camp.Loads, avail.FaultLoad{Spec: specs[i], Tpl: ep.Tpl})
			if ep.Normal > camp.Normal {
				camp.Normal = ep.Normal
			}
			camp.Offered = ep.Offered
		}
		return SerializeCampaign(camp)
	}
	first := runOnce()
	second := runOnce()
	if !bytes.Equal(first, second) {
		a, b := string(first), string(second)
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				lo := max(0, i-120)
				t.Fatalf("replay diverges at byte %d:\nfirst:  ...%s\nsecond: ...%s",
					i, a[lo:min(len(a), i+120)], b[lo:min(len(b), i+120)])
			}
		}
		t.Fatalf("replay output lengths differ: %d vs %d bytes", len(first), len(second))
	}
	if len(first) == 0 {
		t.Fatal("serialized campaign is empty")
	}
}

// TestEpisodeMemoSingleflight fires concurrent requests for one episode:
// all callers must receive the same underlying run (shared Series
// pointer), i.e. the episode simulated once, not five times.
func TestEpisodeMemoSingleflight(t *testing.T) {
	o := FastOptions(1)
	sched := FastSchedule()
	const callers = 5
	eps := make([]Episode, callers)
	errs := make([]error, callers)
	done := make(chan int, callers)
	for i := 0; i < callers; i++ {
		i := i
		go func() {
			eps[i], errs[i] = RunEpisode(VCOOP, o, faults.NodeCrash, 1, sched)
			done <- i
		}()
	}
	for i := 0; i < callers; i++ {
		<-done
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if eps[i].Series != eps[0].Series {
			t.Fatalf("caller %d got a distinct simulation (Series pointers differ): memo did not singleflight", i)
		}
		if eps[i].Tpl != eps[0].Tpl {
			t.Fatalf("caller %d got a different template", i)
		}
	}
}

// TestCampaignMatchesEpisodes: a campaign assembled on the pool must be
// exactly the per-spec episodes in Table 1 order.
func TestCampaignMatchesEpisodes(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	t.Parallel()
	o := FastOptions(1)
	sched := FastSchedule()
	camp, err := Campaign(VCOOP, o, sched)
	if err != nil {
		t.Fatal(err)
	}
	specs := faults.Table1(serverCount(VCOOP, o.withDefaults()), 2, versionTraits(VCOOP).fe)
	if len(camp.Eps) != len(specs) {
		t.Fatalf("campaign has %d episodes, want %d", len(camp.Eps), len(specs))
	}
	for i, spec := range specs {
		if camp.Loads[i].Spec.Type != spec.Type {
			t.Fatalf("load %d is %v, want %v (order not preserved)", i, camp.Loads[i].Spec.Type, spec.Type)
		}
		ep, err := RunEpisode(VCOOP, o, spec.Type, DefaultComponent(spec.Type), sched)
		if err != nil {
			t.Fatal(err)
		}
		if camp.Eps[i].Tpl != ep.Tpl {
			t.Fatalf("%v: campaign episode differs from direct (memoized) episode", spec.Type)
		}
	}
}

// TestSetWorkers exercises the pool bound accessors.
func TestSetWorkers(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	if prev := SetWorkers(3); prev != orig {
		t.Fatalf("SetWorkers returned %d, want previous bound %d", prev, orig)
	}
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	SetWorkers(0) // clamps to 1
	if Workers() != 1 {
		t.Fatalf("Workers() = %d after SetWorkers(0), want 1", Workers())
	}
}

// BenchmarkCampaignEpisodes compares serial and pooled execution of the
// COOP episode set, bypassing the memo, so b.N>1 genuinely re-simulates.
// On a multi-core machine the pooled variant's wall-clock is the longest
// episode chain instead of the sum (≥2x at 4 cores); ns/op is the number
// to compare.
func BenchmarkCampaignEpisodes(b *testing.B) {
	o := FastOptions(1)
	sched := FastSchedule()
	specs := faults.Table1(serverCount(VCOOP, o.withDefaults()), 2, versionTraits(VCOOP).fe)
	Saturation(VCOOP, o)
	for _, bm := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"pooled", 4},
	} {
		b.Run(bm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := defaultEngine.episodesUncached(VCOOP, o, specs, sched, bm.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
