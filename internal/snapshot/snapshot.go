// Package snapshot checkpoints a fully warmed harness cluster into a
// compact, hash-addressed blob and rehydrates it into independent
// forks. A restored world continues byte-identically: every pending
// kernel event is re-armed at its exact (time, sequence) slot, every
// random stream resumes mid-sequence, and every in-flight network,
// disk and request operation picks up where the saved world stopped —
// so an episode restored at time T produces the same event log and
// metrics series as the uninterrupted run from T onward.
//
// The engine covers every version from INDEP through FME (front-end
// tier, membership, queue monitoring, FME daemons); S-FME, C-MON and the
// redundant front-end pair are refused. The blob is self-describing: an
// envelope (format version, experiment version, options, resolved
// offered rate, capture time) followed by the harness world stream
// (see harness.SaveWorld for the section order).
package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"time"

	"press/internal/harness"
	"press/internal/snapio"
)

const (
	magic = "press-snap"
	// format 2: Options carries the protocol suite, and the forward
	// message codec carries the sharded-mode relay origin.
	format = 2
)

// Extra lets a simulation driver (the chaos runner) piggyback its own
// state — pending fault-arm timers, phase machine — on the world
// stream. SaveExtra runs between the subsystem sections and the network
// tables, so it can still claim pending kernel events.
type Extra interface {
	SaveExtra(ctx *snapio.Ctx)
}

// Snap is one captured world.
type Snap struct {
	Version harness.Version
	Opts    harness.Options // normalized (withDefaults applied by Build)
	Rate    float64         // resolved offered load the world runs at
	At      time.Duration   // sim time of the capture

	blob []byte
	hash string
}

// Bytes returns the serialized snapshot (envelope + world stream).
func (s *Snap) Bytes() []byte { return s.blob }

// Size returns the blob size in bytes.
func (s *Snap) Size() int { return len(s.blob) }

// Hash returns the snapshot's content address: the hex sha256 of the
// blob. Two captures hash equal iff their worlds are byte-identical.
func (s *Snap) Hash() string { return s.hash }

func encOptions(e *snapio.Encoder, o harness.Options) {
	e.I64(o.Seed)
	e.Int(o.Nodes)
	e.I64(o.CacheBytes)
	e.F64(o.Rate)
	e.Dur(o.Warmup)
	e.Dur(o.HeartbeatPeriod)
	e.Dur(o.OperatorResponse)
	e.Bool(o.RedundantFE)
	e.Int(o.Docs)
	e.F64(o.Alpha)
	e.Int(int(o.Protocol))
}

func decOptions(d *snapio.Decoder) harness.Options {
	return harness.Options{
		Seed:             d.I64(),
		Nodes:            d.Int(),
		CacheBytes:       d.I64(),
		Rate:             d.F64(),
		Warmup:           d.Dur(),
		HeartbeatPeriod:  d.Dur(),
		OperatorResponse: d.Dur(),
		RedundantFE:      d.Bool(),
		Docs:             d.Int(),
		Alpha:            d.F64(),
		Protocol:         harness.ProtocolSuite(d.Int()),
	}
}

// Take captures the cluster's complete state. extra, when non-nil,
// appends driver state at the world stream's extra slot.
func Take(c *harness.Cluster, extra Extra) (s *Snap, err error) {
	defer snapio.Catch(&err)
	ctx := harness.NewSnapCtx()
	ctx.Enc = &snapio.Encoder{}
	e := ctx.Enc
	e.Str(magic)
	e.Int(format)
	e.Str(string(c.Version))
	encOptions(e, c.Opts)
	e.F64(c.Offered())
	e.Dur(c.Sim.Now())

	var hook func(*snapio.Ctx)
	if extra != nil {
		hook = extra.SaveExtra
	}
	c.SaveWorld(ctx, hook)

	blob := e.Bytes()
	sum := sha256.Sum256(blob)
	return &Snap{
		Version: c.Version,
		Opts:    c.Opts,
		Rate:    c.Offered(),
		At:      c.Sim.Now(),
		blob:    blob,
		hash:    hex.EncodeToString(sum[:]),
	}, nil
}

// Load wraps a serialized snapshot, validating and parsing only the
// envelope; the world stream is decoded by Restore.
func Load(data []byte) (s *Snap, err error) {
	defer snapio.Catch(&err)
	d := snapio.NewDecoder(data)
	if d.Str() != magic {
		snapio.Failf("not a press snapshot (bad magic)")
	}
	if f := d.Int(); f != format {
		snapio.Failf("unsupported snapshot format %d (have %d)", f, format)
	}
	s = &Snap{Version: harness.Version(d.Str())}
	s.Opts = decOptions(d)
	s.Rate = d.F64()
	s.At = d.Dur()
	if err := d.Err(); err != nil {
		return nil, err
	}
	s.blob = data
	sum := sha256.Sum256(data)
	s.hash = hex.EncodeToString(sum[:])
	return s, nil
}

// Restore rehydrates one independent cluster from the snapshot. extra
// mirrors Take's hook: it runs at the same stream position with the
// half-restored cluster in hand. Each call builds a fresh world; the
// snapshot itself is never consumed and can be restored any number of
// times.
func (s *Snap) Restore(extra func(*harness.Cluster, *snapio.Ctx)) (c *harness.Cluster, err error) {
	defer snapio.Catch(&err)
	ctx := harness.NewSnapCtx()
	d := snapio.NewDecoder(s.blob)
	ctx.Dec = d
	if d.Str() != magic {
		snapio.Failf("not a press snapshot (bad magic)")
	}
	if f := d.Int(); f != format {
		snapio.Failf("unsupported snapshot format %d (have %d)", f, format)
	}
	v := harness.Version(d.Str())
	o := decOptions(d)
	rate := d.F64()
	at := d.Dur()

	c = harness.RestoreWorld(v, o, rate, ctx, extra)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if !d.Done() {
		snapio.Failf("trailing bytes after world stream")
	}
	if c.Sim.Now() != at {
		snapio.Failf("restored clock %v does not match capture time %v", c.Sim.Now(), at)
	}
	return c, nil
}

// Fork rehydrates n independent clusters and runs work on each,
// fanning out across the engine's worker pool. The first error stops
// nothing (every fork still runs) but is returned.
func (s *Snap) Fork(eng *harness.Engine, n int, work func(i int, c *harness.Cluster) error) error {
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		i := i
		// Orchestration-only launcher: the restore and the simulation work
		// happen while holding a pool slot inside RunOnPool.
		go func() { //availlint:allow simgoroutine bounded by the engine worker pool
			defer func() { done <- i }()
			eng.RunOnPool(func() {
				c, err := s.Restore(nil)
				if err != nil {
					errs[i] = err
					return
				}
				errs[i] = work(i, c)
			})
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
