// Package clock abstracts time so that every protocol component in this
// repository (the PRESS server, the membership service, queue monitoring,
// FME, the front-end) can run unchanged on either the discrete-event
// simulator (package sim) or real wall-clock time (package livenet).
//
// Instants are expressed as a time.Duration offset from an arbitrary epoch
// (simulation start, or process start in live mode). Protocol code only
// ever compares instants and schedules relative timers, so an offset-based
// representation is sufficient and keeps the simulator allocation-free.
package clock

import (
	"sync"
	"time"
)

// Timer is a handle to a pending callback scheduled with AfterFunc.
type Timer interface {
	// Stop cancels the timer. It reports whether the call prevented the
	// callback from firing. Stopping an already-fired or already-stopped
	// timer is a harmless no-op that returns false.
	Stop() bool
}

// Ticker is a handle to a periodic callback scheduled with Every.
type Ticker interface {
	// Stop ends the periodic loop. It reports whether the ticker was
	// still active. Calling Stop from inside the ticker's own callback
	// suppresses the rearm that would otherwise follow; stopping an
	// already-stopped ticker is a harmless no-op that returns false.
	Stop() bool

	// Reschedule makes the ticker fire next d from now, after which it
	// resumes its regular period. Called from inside the ticker's own
	// callback it replaces the automatic rearm, letting the callback
	// choose its next interval; called on a stopped ticker it revives it.
	Reschedule(d time.Duration)
}

// Clock supplies the current time, one-shot timers, and periodic tickers.
//
// Implementations guarantee that callbacks scheduled by AfterFunc fire in
// non-decreasing time order. The discrete-event implementation additionally
// guarantees full determinism: equal deadlines fire in scheduling order.
type Clock interface {
	// Now returns the current instant as an offset from the clock's epoch.
	Now() time.Duration

	// AfterFunc schedules fn to be called once, d from now. A non-positive
	// d fires as soon as possible (but never synchronously inside the
	// AfterFunc call itself).
	AfterFunc(d time.Duration, fn func()) Timer

	// Every schedules fn to be called every d, first firing d from now.
	// The next deadline is set after fn returns (rearm-at-end), so a
	// slow callback cannot stack invocations and fn may call the
	// ticker's Stop or Reschedule to end or retime the loop.
	Every(d time.Duration, fn func()) Ticker
}

// Scheduler is implemented by clocks that can arm a one-shot callback
// without minting a Timer handle. It returns the timer's serial: the
// identity snapshot code re-claims a pending callback by (0 when the
// clock numbers no timers or refused the timer).
type Scheduler interface {
	Schedule(d time.Duration, fn func()) (serial uint64)
}

// Schedule arms fn on c once, d from now, for callers that never stop
// the timer. On a Scheduler (the simulated process clock) no handle is
// minted, so a fire-and-forget timer allocates nothing, and the serial
// is returned; elsewhere it falls back to AfterFunc and returns 0.
// Callers that may need Stop keep using AfterFunc.
func Schedule(c Clock, d time.Duration, fn func()) (serial uint64) {
	if s, ok := c.(Scheduler); ok {
		return s.Schedule(d, fn)
	}
	c.AfterFunc(d, fn)
	return 0
}

// Real is a Clock backed by the operating system clock. The zero value is
// not usable; call NewReal.
type Real struct {
	epoch time.Time
}

// NewReal returns a wall-clock Clock whose epoch is the moment of the call.
func NewReal() *Real {
	return &Real{epoch: time.Now()}
}

// Now returns the wall-clock time elapsed since the epoch.
func (r *Real) Now() time.Duration { return time.Since(r.epoch) }

// AfterFunc schedules fn on the runtime timer heap.
func (r *Real) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return realTimer{time.AfterFunc(d, fn)}
}

// Every schedules a periodic fn via the generic rearm-at-end ticker.
func (r *Real) Every(d time.Duration, fn func()) Ticker {
	return NewFuncTicker(r, d, fn)
}

type realTimer struct{ t *time.Timer }

func (rt realTimer) Stop() bool { return rt.t.Stop() }

var _ Clock = (*Real)(nil)

// FuncTicker adapts any Clock's one-shot AfterFunc into the periodic
// Ticker contract: fire, run fn, rearm after fn returns. Wall-clock and
// wrapper Clocks (livenet, the per-process simulated clock) use it so
// the rearm happens on the implementation's own dispatch path — after
// mailbox delivery and CPU charging, not at schedule time — exactly
// matching the hand-rolled rearm-at-end-of-callback idiom it replaces.
type FuncTicker struct {
	mu      sync.Mutex
	c       Clock
	period  time.Duration
	fn      func()
	fireFn  func() // t.fire, bound once so rearms don't allocate
	timer   Timer  //availlint:allow timerretain every access is under mu; this is the audited wall-clock ticker implementation
	firing  bool
	rearmed bool
	stopped bool
}

// NewFuncTicker starts a periodic fn on c, first firing d from now.
func NewFuncTicker(c Clock, d time.Duration, fn func()) *FuncTicker {
	if fn == nil {
		panic("clock: nil ticker function")
	}
	if d <= 0 {
		panic("clock: ticker period must be positive")
	}
	t := &FuncTicker{c: c, period: d, fn: fn}
	t.fireFn = t.fire
	t.timer = c.AfterFunc(d, t.fireFn)
	return t
}

func (t *FuncTicker) fire() {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	t.firing, t.rearmed = true, false
	t.mu.Unlock()
	t.fn()
	t.mu.Lock()
	t.firing = false
	if !t.stopped && !t.rearmed {
		t.timer = t.c.AfterFunc(t.period, t.fireFn)
	}
	t.mu.Unlock()
}

// Stop ends the loop; see the Ticker contract.
func (t *FuncTicker) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return false
	}
	t.stopped = true
	active := t.firing
	if t.timer != nil && t.timer.Stop() {
		active = true
	}
	t.timer = nil
	return active
}

// Reschedule retimes (or revives) the loop; see the Ticker contract.
func (t *FuncTicker) Reschedule(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopped = false
	if t.firing {
		t.rearmed = true
	}
	if t.timer != nil {
		t.timer.Stop()
	}
	t.timer = t.c.AfterFunc(d, t.fireFn)
}

var _ Ticker = (*FuncTicker)(nil)
