package harness

import (
	"reflect"
	"testing"
	"time"

	"press/internal/faults"
)

// forkVersions lists the measured versions whose episodes fork from a
// warm capture.
func forkVersions() []Version {
	var vs []Version
	for _, v := range AllMeasuredVersions() {
		if snapshotSupported(versionTraits(v), Options{}) {
			vs = append(vs, v)
		}
	}
	return vs
}

// TestForkedEpisodeMatchesCold is the fork-vs-cold differential: for
// every fork-capable version and every Table 1 fault, the episode
// finished on a world restored from the warm capture must equal the one
// finished on the world that simulated its own prefix — template,
// markers and dips, normal and offered load, every series bucket, the
// full event log, and the kernel's event counters. -short runs COOP and
// FME with two faults each.
func TestForkedEpisodeMatchesCold(t *testing.T) {
	o := FastOptions(1)
	sched := FastSchedule().withDefaults()
	e := NewEngine(0)
	for _, v := range forkVersions() {
		if testing.Short() && v != VCOOP && v != VFME {
			continue
		}
		v := v
		t.Run(string(v), func(t *testing.T) {
			w, err := e.warmCaptureFor(v, o, sched)
			if err != nil {
				t.Fatal(err)
			}
			specs := faults.Table1(serverCount(v, o.withDefaults()), 2, versionTraits(v).fe)
			if testing.Short() {
				specs = []faults.Spec{specs[0], specs[len(specs)-1]}
			}
			for _, spec := range specs {
				f, comp := spec.Type, DefaultComponent(spec.Type)
				cold := e.warmWorld(v, o.withDefaults(), sched)
				coldEp, coldErr := finishEpisode(cold, f, comp, sched)
				fork, err := w.restore()
				if err != nil {
					t.Fatalf("%v: restore: %v", f, err)
				}
				forkEp, forkErr := finishEpisode(fork, f, comp, sched)
				if (coldErr == nil) != (forkErr == nil) {
					t.Fatalf("%v: cold err %v, forked err %v", f, coldErr, forkErr)
				}
				diffEpisodes(t, f, coldEp, forkEp)
				_, cSeq, cFired, _ := cold.Sim.Counters()
				_, fSeq, fFired, _ := fork.Sim.Counters()
				if cFired != fFired || cSeq != fSeq {
					t.Errorf("%v: kernel counters differ: cold fired %d seq %d, forked fired %d seq %d",
						f, cFired, cSeq, fFired, fSeq)
				}
			}
		})
	}
}

func diffEpisodes(t *testing.T, f faults.Type, cold, fork Episode) {
	t.Helper()
	if cold.Tpl != fork.Tpl {
		t.Errorf("%v: template differs:\ncold:   %v\nforked: %v", f, cold.Tpl, fork.Tpl)
	}
	if cold.Markers != fork.Markers {
		t.Errorf("%v: markers differ:\ncold:   %+v\nforked: %+v", f, cold.Markers, fork.Markers)
	}
	if !reflect.DeepEqual(cold.Dips, fork.Dips) {
		t.Errorf("%v: dips differ:\ncold:   %+v\nforked: %+v", f, cold.Dips, fork.Dips)
	}
	if cold.Normal != fork.Normal || cold.Offered != fork.Offered {
		t.Errorf("%v: normal/offered differ: cold (%v, %v) forked (%v, %v)",
			f, cold.Normal, cold.Offered, fork.Normal, fork.Offered)
	}
	if !reflect.DeepEqual(cold.Series.Buckets(), fork.Series.Buckets()) {
		t.Errorf("%v: throughput series differ", f)
	}
	ce, fe := cold.Log.All(), fork.Log.All()
	if len(ce) != len(fe) {
		t.Errorf("%v: event logs hold %d (cold) vs %d (forked) events", f, len(ce), len(fe))
	}
	for i := 0; i < len(ce) && i < len(fe); i++ {
		if ce[i].String() != fe[i].String() {
			t.Errorf("%v: event %d differs:\ncold:   %s\nforked: %s", f, i, ce[i], fe[i])
			break
		}
	}
}

// TestPrivateEngineLeavesDefaultEngineAlone pins the engine boundary: a
// campaign on a private engine resolves its offered rate, its warm
// capture and its episodes on that engine alone, so the process-wide
// default engine's memos do not grow. The options are used by no other
// test, so a hidden probe on the default engine would be a miss and
// show up in the counts.
func TestPrivateEngineLeavesDefaultEngineAlone(t *testing.T) {
	o := FastOptions(11)
	ep0, camp0, sat0 := MemoStats()
	snap0 := SnapMemoStats()
	e := NewEngine(0)
	if _, err := e.RunEpisode(VCOOP, o, faults.NodeCrash, 1, FastSchedule()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunEpisode(VINDEP, o, faults.NodeCrash, 1, FastSchedule()); err != nil {
		t.Fatal(err)
	}
	if ep1, camp1, sat1 := MemoStats(); ep1 != ep0 || camp1 != camp0 || sat1 != sat0 {
		t.Errorf("default engine memos moved: (%d,%d,%d) -> (%d,%d,%d)", ep0, camp0, sat0, ep1, camp1, sat1)
	}
	if snap1 := SnapMemoStats(); snap1 != snap0 {
		t.Errorf("default engine snapshot memo moved: %d -> %d", snap0, snap1)
	}
	if _, _, sat := e.MemoStats(); sat != 2 {
		t.Errorf("private engine holds %d saturation probes, want 2 (COOP, INDEP)", sat)
	}
	if n := e.SnapMemoStats(); n != 2 {
		t.Errorf("private engine holds %d warm captures, want 2", n)
	}
}

// TestOneWorkerCampaignCompletes guards the pool discipline: the warm
// capture takes a slot of its own, so it must be resolved before an
// episode takes one. With a single slot, nesting would deadlock.
func TestOneWorkerCampaignCompletes(t *testing.T) {
	e := NewEngine(1)
	done := make(chan error, 1)
	go func() {
		_, err := e.RunEpisode(VCOOP, FastOptions(1), faults.AppCrash, 1, FastSchedule())
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("1-worker episode did not finish: warm capture nested inside a held slot")
	}
}
