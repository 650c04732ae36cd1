package harness

import (
	"fmt"

	"press/internal/snapio"
)

// Episode prefix forking. Every phase-1 episode of a version begins with
// the same warm prefix: Build, start the load, run Warmup + Settle. The
// prefix depends only on (version, options, settle), so an engine
// simulates it once, captures the world at the injection point, and
// restores every episode of that version from the capture — the first
// one included, so each campaign re-checks that a restored world
// continues exactly like the one that was captured.

// warmCapture is one version's world captured at the end of the warm
// prefix: the world stream (no envelope) plus what RestoreWorld needs
// to rebuild the topology it decodes into.
type warmCapture struct {
	v    Version
	o    Options
	rate float64
	blob []byte
}

// warmCaptureFor returns the engine's memoized warm capture for
// (v, o, settle), simulating and capturing the prefix on first use, or
// nil when the snapshot engine does not cover v. The capture is
// memoized in the snapshot table (under its own "prefix|" key, so it
// never counts as an episode, campaign or saturation result) and is
// computed while holding one pool slot: callers must not hold one.
func (e *Engine) warmCaptureFor(v Version, o Options, sched EpisodeSchedule) (*warmCapture, error) {
	if !snapshotSupported(versionTraits(v), o) {
		return nil, nil
	}
	o = o.withDefaults()
	sched = sched.withDefaults()
	key := fmt.Sprintf("prefix|%s|%+v|%v", v, o, sched.Settle)
	val, err := e.SnapMemoized(key, func() (any, error) {
		return captureWarm(e.warmWorld(v, o, sched))
	})
	if err != nil {
		return nil, err
	}
	return val.(*warmCapture), nil
}

// captureWarm serializes c's complete state.
func captureWarm(c *Cluster) (w *warmCapture, err error) {
	defer snapio.Catch(&err)
	ctx := NewSnapCtx()
	ctx.Enc = &snapio.Encoder{}
	c.SaveWorld(ctx, nil)
	return &warmCapture{v: c.Version, o: c.Opts, rate: c.Offered(), blob: ctx.Enc.Bytes()}, nil
}

// restore rehydrates one independent world from the capture. The
// capture is never consumed.
func (w *warmCapture) restore() (c *Cluster, err error) {
	defer snapio.Catch(&err)
	ctx := NewSnapCtx()
	ctx.Dec = snapio.NewDecoder(w.blob)
	c = RestoreWorld(w.v, w.o, w.rate, ctx, nil)
	if err := ctx.Dec.Err(); err != nil {
		return nil, err
	}
	if !ctx.Dec.Done() {
		snapio.Failf("trailing bytes after world stream")
	}
	return c, nil
}
