package machine

import (
	"testing"
	"time"

	"press/internal/clock"
)

// A fire-and-forget timer — armed, fired through the mailbox, never
// stopped — is the server's per-request pattern (disk completions,
// deferred admissions). With the timer-record and kernel-event pools
// warm it must allocate nothing: clock.Schedule mints no handle, where
// AfterFunc's boxed procTimer costs one object per call.
func TestScheduleAllocsPerRun(t *testing.T) {
	w := newWorld()
	m := New(w.sim, w.net, 0, nil, w.log)
	var env *Env
	m.AddProc("app", func(e *Env) { env = e })
	fired := 0
	fn := func() { fired++ }
	step := func() {
		clock.Schedule(env.Clock(), time.Millisecond, fn)
		w.sim.RunFor(2 * time.Millisecond)
	}
	for i := 0; i < 16; i++ {
		step()
	}
	if per := testing.AllocsPerRun(200, step); per != 0 {
		t.Errorf("fire-and-forget timer allocates %.2f objects per call; want 0", per)
	}
	if fired < 200 {
		t.Fatalf("only %d timers fired", fired)
	}

	// Retained handles keep their contract: the serial numbers the timer
	// and Stop cancels it.
	before := fired
	h := env.Clock().AfterFunc(time.Millisecond, fn)
	if s, ok := h.(interface{ TimerSerial() uint64 }); !ok || s.TimerSerial() == 0 {
		t.Fatalf("retained handle %T carries no serial", h)
	}
	if !h.Stop() {
		t.Fatal("Stop on a pending timer reported false")
	}
	w.sim.RunFor(5 * time.Millisecond)
	if fired != before {
		t.Fatal("stopped timer fired")
	}
	if ser := clock.Schedule(env.Clock(), 0, fn); ser == 0 {
		t.Fatal("Schedule on a live process returned no serial")
	}
}
