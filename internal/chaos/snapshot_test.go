package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"press/internal/faults"
	"press/internal/harness"
	"press/internal/snapshot"
)

// diffAt renders the first divergence between two serialized runs.
func diffAt(t *testing.T, what string, want, got []byte) {
	t.Helper()
	a, b := string(want), string(got)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 160
			if lo < 0 {
				lo = 0
			}
			hi := i + 160
			if hi > n {
				hi = n
			}
			t.Fatalf("%s diverged at byte %d\n--- uninterrupted ---\n...%s\n--- restored ---\n...%s",
				what, i, a[lo:hi], b[lo:hi])
		}
	}
	t.Fatalf("%s diverged: lengths %d vs %d", what, len(want), len(got))
}

// TestSnapshotRestoreByteIdentical is the tentpole's correctness bar:
// the COOP acceptance campaign is paused at the warm-fork point, mid
// compound fault, and mid recovery; each pause captures a snapshot, the
// paused run finishes (and must match the never-paused baseline), and a
// run restored from each snapshot must serialize byte-for-byte equal to
// the baseline — same counters, availability, verdicts, throughput
// series, and full event log.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	o := fastOpts(1)
	rc := fastRun()
	sched := replaySchedule()

	base, err := RunUncached(harness.VCOOP, o, sched, rc)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Serialize()

	// t0 = warmup(60s) + settle(10s) = 70s; faults span 80s..140s; drain
	// verdict at 185s.
	cases := []struct {
		name string
		at   time.Duration
	}{
		// mid-fault doubles as the regression pin for the typed-nil ref
		// bugs the snapshot audit found: a reaped conn's nil peer and an
		// in-flight dialSyn's nil local half both crashed SaveConns until
		// the save side learned to encode them as ref 0.
		{"warmup-end", 70 * time.Second},    // pre-arm: the warm-fork point
		{"mid-fault", 100 * time.Second},    // node 1 crashed AND node 2's link flapping
		{"mid-recovery", 186 * time.Second}, // past the drain verdict
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			paused, snap, err := RunWithSnapshotAt(harness.VCOOP, o, sched, rc, tc.at)
			if err != nil {
				t.Fatal(err)
			}
			if got := paused.Serialize(); !bytes.Equal(got, want) {
				diffAt(t, "paused run", want, got)
			}
			if snap.At != tc.at {
				t.Fatalf("snapshot captured at %v, want %v", snap.At, tc.at)
			}
			res, err := ResumeUncached(snap, sched, rc)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Serialize(); !bytes.Equal(got, want) {
				diffAt(t, "restored run", want, got)
			}
		})
	}
}

// TestSnapshotRestoreByteIdenticalFME is the same bar on the widest
// snapshot-capable world: the golden FME compound schedule (an app
// crash overlapping a link flap, then a hang FME converts) paused at the
// warm-fork point, mid compound fault, mid hang while the FME daemon
// probes, and in the recovery tail. Every pause must be free and every
// restored run byte-identical, front-end relays, membership 2PC and
// in-flight FME probe rounds included.
func TestSnapshotRestoreByteIdenticalFME(t *testing.T) {
	o := fastOpts(1)
	rc := fastRun()
	sched := goldenChaosSchedule()

	base, err := RunUncached(harness.VFME, o, sched, rc)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Serialize()

	// t0 = 70s; the crash and the flap overlap over 85s..100s, the hang
	// runs 130s..170s.
	for _, at := range []time.Duration{70 * time.Second, 92 * time.Second, 151 * time.Second, 205 * time.Second} {
		at := at
		t.Run(at.String(), func(t *testing.T) {
			paused, snap, err := RunWithSnapshotAt(harness.VFME, o, sched, rc, at)
			if err != nil {
				t.Fatal(err)
			}
			if got := paused.Serialize(); !bytes.Equal(got, want) {
				diffAt(t, "paused run", want, got)
			}
			res, err := ResumeUncached(snap, sched, rc)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Serialize(); !bytes.Equal(got, want) {
				diffAt(t, "restored run", want, got)
			}
		})
	}
}

// TestWarmForkFMEMatchesCold forks generated schedules from one warm FME
// world at 90% of saturation (the CLI's fast warm-fork campaign) and
// compares each with its cold run. Seed 4's schedule also pins a crash
// the cold path had: a handler drained by Resume closed a later conn,
// the network recycled it, and the resuming loop touched it.
func TestWarmForkFMEMatchesCold(t *testing.T) {
	v := harness.VFME
	o := harness.FastOptions(1)
	o.Rate = 0.9 * harness.Saturation(v, harness.FastOptions(1))
	seeds := Seeds(4)
	if testing.Short() {
		seeds = seeds[3:]
	}
	snap, err := WarmSnapshot(v, o, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		genOpts := o
		genOpts.Seed = seed
		sched := Generate(seed, v, genOpts, GenConfig{})
		cold, err := RunUncached(v, o, sched, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		fork, err := ResumeUncached(snap, sched, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if want, got := cold.Serialize(), fork.Serialize(); !bytes.Equal(got, want) {
			diffAt(t, fmt.Sprintf("seed %d warm fork", seed), want, got)
		}
	}
}

// TestWarmForkMatchesCold pins the warm-fork contract: forking the
// memoized warm snapshot and arming a schedule produces the exact
// Result the cold path produces for the same world and schedule.
func TestWarmForkMatchesCold(t *testing.T) {
	o := fastOpts(1)
	rc := fastRun()
	sched := replaySchedule()

	snap, err := WarmSnapshot(harness.VCOOP, o, rc)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunUncached(harness.VCOOP, o, sched, rc)
	if err != nil {
		t.Fatal(err)
	}
	fork, err := ResumeUncached(snap, sched, rc)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := cold.Serialize(), fork.Serialize(); !bytes.Equal(got, want) {
		diffAt(t, "warm fork", want, got)
	}

	// The memoized entry point returns the same result and actually
	// lands in the snapshot memo table, not the episode/campaign caches.
	ep0, camp0, sat0 := harness.MemoStats()
	res, err := RunFromSnapshot(snap, sched, rc)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := cold.Serialize(), res.Serialize(); !bytes.Equal(got, want) {
		diffAt(t, "memoized fork", want, got)
	}
	if harness.SnapMemoStats() == 0 {
		t.Fatal("RunFromSnapshot left the snapshot memo empty")
	}
	if ep1, camp1, sat1 := harness.MemoStats(); ep1 != ep0 || camp1 != camp0 || sat1 != sat0 {
		t.Fatalf("fork run touched the cold-start caches: %d/%d/%d -> %d/%d/%d",
			ep0, camp0, sat0, ep1, camp1, sat1)
	}
}

// TestSnapshotForkProperty is the randomized pin: for a random pause
// time anywhere in the run, two forks of the same snapshot with the
// same schedule serialize identically, and a different schedule either
// diverges (pre-arm snapshots) or is rejected (armed snapshots).
func TestSnapshotForkProperty(t *testing.T) {
	o := fastOpts(1)
	rc := fastRun()
	sched := replaySchedule()
	altSched := Schedule{
		{At: 12 * time.Second, Fault: faults.AppCrash, Component: 0, Duration: 25 * time.Second},
	}

	base, err := RunUncached(harness.VCOOP, o, sched, rc)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Serialize()
	horizon := base.End // covers warmup through recovery and final observation
	const warmEnd = 70 * time.Second

	check := func(raw uint32) bool {
		at := time.Duration(raw) % horizon
		_, snap, err := RunWithSnapshotAt(harness.VCOOP, o, sched, rc, at)
		if err != nil {
			t.Logf("at=%v: %v", at, err)
			return false
		}
		a, err := ResumeUncached(snap, sched, rc)
		if err != nil {
			t.Logf("at=%v first fork: %v", at, err)
			return false
		}
		b, err := ResumeUncached(snap, sched, rc)
		if err != nil {
			t.Logf("at=%v second fork: %v", at, err)
			return false
		}
		sa, sb := a.Serialize(), b.Serialize()
		if !bytes.Equal(sa, sb) {
			t.Logf("at=%v: same-schedule forks diverged", at)
			return false
		}
		if !bytes.Equal(sa, want) {
			t.Logf("at=%v: fork diverged from uninterrupted baseline", at)
			return false
		}
		alt, err := ResumeUncached(snap, altSched, rc)
		if at < warmEnd {
			// Pre-arm: the fork accepts any schedule and must diverge.
			if err != nil {
				t.Logf("at=%v: pre-arm fork rejected new schedule: %v", at, err)
				return false
			}
			if bytes.Equal(alt.Serialize(), sa) {
				t.Logf("at=%v: different schedules produced identical runs", at)
				return false
			}
		} else if err == nil {
			t.Logf("at=%v: armed snapshot accepted a different schedule", at)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 6}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestFaultsRoundTripMidFlap is the injector round-trip: the snapshot
// is taken while node 2's link is mid-flap and node 1's crash is
// already repaired (partial repair). The restored injector must carry
// the same slot occupancy, its flap toggle must keep firing, and the
// ErrActive/ErrNotActive contracts must survive restore.
func TestFaultsRoundTripMidFlap(t *testing.T) {
	o := fastOpts(1)
	rc := fastRun().withDefaults()
	sched := replaySchedule().Canonical()

	// 125s: crash (80s..120s) repaired, flap (95s..140s) still active.
	r := newRunner(harness.VCOOP, o, sched, rc)
	r.advance(125 * time.Second)
	wantActive := r.c.Injector.ActiveCount()
	if wantActive == 0 {
		t.Fatal("expected active faults at the capture point")
	}
	if r.c.Injector.ActiveAt(faults.LinkDown, 2) == nil {
		t.Fatal("link flap not active at the capture point")
	}
	snap, err := snapshot.Take(r.c, r)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := restoreRunner(snap, sched, rc)
	if err != nil {
		t.Fatal(err)
	}
	in := r2.c.Injector
	if got := in.ActiveCount(); got != wantActive {
		t.Fatalf("restored injector has %d active slots, want %d", got, wantActive)
	}
	a := in.ActiveAt(faults.LinkDown, 2)
	if a == nil {
		t.Fatal("restored injector lost the active link flap")
	}
	if in.ActiveAt(faults.NodeCrash, 1) != nil {
		t.Fatal("restored injector resurrected the repaired node crash")
	}

	// The flap toggle timer keeps firing on the restored world exactly
	// as on the paused original: both logs must stay identical through
	// several on/off cycles.
	r.c.Sim.RunUntil(138 * time.Second)
	r2.c.Sim.RunUntil(138 * time.Second)
	wantLog, gotLog := r.c.Log.Dump(), r2.c.Log.Dump()
	if wantLog != gotLog {
		diffAt(t, "mid-flap continuation log", []byte(wantLog), []byte(gotLog))
	}

	// Slot occupancy and the typed-error contracts.
	if _, err := in.Inject(faults.LinkDown, 2); !errors.Is(err, faults.ErrActive) {
		t.Fatalf("re-injecting an occupied slot: err=%v, want ErrActive", err)
	}
	if err := a.Repair(); err != nil {
		t.Fatalf("repairing the restored flap: %v", err)
	}
	if err := a.Repair(); !errors.Is(err, faults.ErrNotActive) {
		t.Fatalf("double repair: err=%v, want ErrNotActive", err)
	}
}
