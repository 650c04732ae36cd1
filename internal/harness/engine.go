package harness

import (
	"fmt"
	"runtime"
	"sync"

	"press/internal/faults"
)

// This file is the parallel experiment engine: a worker pool that bounds
// how many simulator instances run at once, plus episode-granularity
// memoization with singleflight semantics.
//
// Every episode is a pure function of (version, options, fault,
// component, schedule): each runs on its own sim.Sim with its own derived
// random streams, so executing episodes concurrently cannot perturb their
// results — the same key yields a bit-identical template whether the
// episode runs serially, on the pool, or is replayed from the memo.
// Singleflight matters because figures, tables, benches and tests share
// episodes: when two campaigns race to the same (version, fault) episode,
// one simulates and the rest wait for its result instead of duplicating
// minutes of simulated time.

// Engine owns one worker pool and one set of memo tables. Independent
// engines share nothing: two experiments built on separate engines can
// run with different concurrency bounds and never exchange cached
// results. Most code uses the process-wide default engine through the
// package-level wrappers; press.New builds a private one per handle.
type Engine struct {
	// pool is a resizable counting semaphore bounding concurrent
	// simulator runs. Orchestration code (campaign fan-out, figure
	// prewarms) never holds a slot; only code that is about to spin a
	// simulator does, so nesting campaigns inside figures cannot
	// deadlock the pool.
	poolMu   sync.Mutex
	poolCond *sync.Cond
	cap      int
	held     int

	memoMu   sync.Mutex
	epMemo   map[string]*epEntry
	campMu   sync.Mutex
	campMemo map[string]*campEntry
	satMu    sync.Mutex
	satMemo  map[string]*satEntry
	snapMu   sync.Mutex
	snapMemo map[string]*snapEntry
}

// NewEngine returns an engine bounded to the given number of concurrent
// simulators. workers < 1 selects the default, GOMAXPROCS.
func NewEngine(workers int) *Engine {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		cap:      workers,
		epMemo:   map[string]*epEntry{},
		campMemo: map[string]*campEntry{},
		satMemo:  map[string]*satEntry{},
		snapMemo: map[string]*snapEntry{},
	}
	e.poolCond = sync.NewCond(&e.poolMu)
	return e
}

// defaultEngine backs the package-level entry points. It is the only
// package-level engine state; everything mutable lives inside it.
var defaultEngine = NewEngine(0)

// DefaultEngine returns the process-wide engine used by the package-level
// Campaign/RunEpisode/Saturation entry points.
func DefaultEngine() *Engine { return defaultEngine }

// SetWorkers bounds the number of concurrently running simulators and
// returns the previous bound. n < 1 means one (fully serial execution).
func (e *Engine) SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	e.poolMu.Lock()
	prev := e.cap
	e.cap = n
	e.poolCond.Broadcast()
	e.poolMu.Unlock()
	return prev
}

// Workers returns the engine's current worker-pool bound.
func (e *Engine) Workers() int {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	return e.cap
}

func (e *Engine) acquireSlot() {
	e.poolMu.Lock()
	for e.held >= e.cap {
		e.poolCond.Wait()
	}
	e.held++
	e.poolMu.Unlock()
}

func (e *Engine) releaseSlot() {
	e.poolMu.Lock()
	e.held--
	e.poolCond.Broadcast()
	e.poolMu.Unlock()
}

// RunOnPool executes fn while holding one worker-pool slot, so external
// simulation drivers (the chaos runner) share this engine's concurrency
// bound instead of oversubscribing the machine.
func (e *Engine) RunOnPool(fn func()) {
	e.acquireSlot()
	defer e.releaseSlot()
	fn()
}

// MemoStats returns how many episodes, campaigns and saturation probes
// are currently memoized. The chaos package's cache-hygiene regression
// asserts chaos runs leave these untouched.
func (e *Engine) MemoStats() (episodes, campaigns, saturations int) {
	e.memoMu.Lock()
	episodes = len(e.epMemo)
	e.memoMu.Unlock()
	e.campMu.Lock()
	campaigns = len(e.campMemo)
	e.campMu.Unlock()
	e.satMu.Lock()
	saturations = len(e.satMemo)
	e.satMu.Unlock()
	return
}

// ResetMemos drops every cached episode, campaign and saturation result.
// In-flight computations finish against the old entries; only callers
// arriving afterwards recompute. Benchmarks use this to measure real
// simulation work instead of memo hits.
func (e *Engine) ResetMemos() {
	e.memoMu.Lock()
	e.epMemo = map[string]*epEntry{}
	e.memoMu.Unlock()
	e.campMu.Lock()
	e.campMemo = map[string]*campEntry{}
	e.campMu.Unlock()
	e.satMu.Lock()
	e.satMemo = map[string]*satEntry{}
	e.satMu.Unlock()
	e.snapMu.Lock()
	e.snapMemo = map[string]*snapEntry{}
	e.snapMu.Unlock()
}

// snapEntry is one singleflight slot in the snapshot-keyed memo table —
// separate from the episode/campaign/saturation tables so snapshot-based
// runs can never alias a cold-start cache entry (and so the 3-way
// MemoStats hygiene contract stays intact).
type snapEntry struct {
	done chan struct{}
	val  any
	err  error
}

// SnapMemoized returns the memoized value for key, computing it at most
// once per engine. compute runs while holding one worker-pool slot, so it
// must not re-enter RunOnPool (or any pool-holding entry point): with a
// 1-slot pool that nesting would deadlock.
func (e *Engine) SnapMemoized(key string, compute func() (any, error)) (any, error) {
	e.snapMu.Lock()
	if m, ok := e.snapMemo[key]; ok {
		e.snapMu.Unlock()
		<-m.done
		return m.val, m.err
	}
	m := &snapEntry{done: make(chan struct{})}
	e.snapMemo[key] = m
	e.snapMu.Unlock()

	e.acquireSlot()
	m.val, m.err = compute()
	e.releaseSlot()
	close(m.done)
	return m.val, m.err
}

// SnapMemoStats reports how many snapshot-keyed results are memoized.
func (e *Engine) SnapMemoStats() int {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	return len(e.snapMemo)
}

// episodeKey identifies one memoizable episode. Options and
// EpisodeSchedule are flat value structs, so %+v is a faithful key.
func episodeKey(v Version, o Options, f faults.Type, comp int, sched EpisodeSchedule) string {
	return fmt.Sprintf("%s|%+v|%v|%d|%+v", v, o, f, comp, sched)
}

// epEntry is one singleflight memo slot: the first requester computes and
// closes done; everyone else blocks on done and shares the result. The
// shared Episode carries pointers (Series, Log) that are immutable once
// the run completes, so sharing is safe.
type epEntry struct {
	done chan struct{}
	ep   Episode
	err  error
}

// RunEpisode returns the episode for the parameters, computing it on the
// engine's worker pool exactly once per engine.
func (e *Engine) RunEpisode(v Version, o Options, f faults.Type, comp int, sched EpisodeSchedule) (Episode, error) {
	o = o.withDefaults()
	sched = sched.withDefaults()
	key := episodeKey(v, o, f, comp, sched)
	e.memoMu.Lock()
	if m, ok := e.epMemo[key]; ok {
		e.memoMu.Unlock()
		<-m.done
		return m.ep, m.err
	}
	m := &epEntry{done: make(chan struct{})}
	e.epMemo[key] = m
	e.memoMu.Unlock()

	// Resolve the warm capture before taking a slot: computing it takes
	// a slot of its own, and with a 1-worker pool nesting would deadlock.
	w, err := e.warmCaptureFor(v, o, sched)
	if err != nil {
		m.ep, m.err = Episode{Version: v, Fault: f, Component: comp}, err
		close(m.done)
		return m.ep, m.err
	}
	e.acquireSlot()
	if w != nil {
		m.ep, m.err = runEpisodeForked(w, f, comp, sched)
	} else {
		m.ep, m.err = e.runEpisodeCold(v, o, f, comp, sched)
	}
	e.releaseSlot()
	close(m.done)
	return m.ep, m.err
}

// episodesUncached reruns the given fault specs' episodes cold, without
// consulting or filling any episode or prefix memo, on up to `workers`
// concurrent simulators (independent of the engine's pool). Only the
// offered rate resolves through e. It exists for the determinism
// regression tests and the serial-vs-pooled benchmark; real callers go
// through RunEpisode/Campaign.
func (e *Engine) episodesUncached(v Version, o Options, specs []faults.Spec, sched EpisodeSchedule, workers int) ([]Episode, error) {
	if workers < 1 {
		workers = 1
	}
	eps := make([]Episode, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, spec := range specs {
		i, spec := i, spec
		wg.Add(1)
		go func() { //availlint:allow simgoroutine bounded by the local sem; this IS the benchmark pool
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			eps[i], errs[i] = e.runEpisodeCold(v, o, spec.Type, DefaultComponent(spec.Type), sched)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return eps, err
		}
	}
	return eps, nil
}

// campaignJob names one (version, options) campaign for prewarming.
type campaignJob struct {
	v Version
	o Options
}

// prewarmJobs runs several campaigns concurrently (each campaign in turn
// fans its episodes out on the pool) and returns the first error. Figure
// generators call this before their serial assembly passes so that every
// subsequent Campaign call is a memo hit.
func (e *Engine) prewarmJobs(sched EpisodeSchedule, jobs []campaignJob) error {
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		i, j := i, j
		wg.Add(1)
		// Orchestration-only: Campaign's episodes take pool slots; the
		// launcher goroutine itself never simulates.
		go func() { //availlint:allow simgoroutine bounded by the engine worker pool
			defer wg.Done()
			_, errs[i] = e.Campaign(j.v, j.o, sched)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// prewarmCampaigns is prewarmJobs for several versions sharing one
// Options.
func (e *Engine) prewarmCampaigns(o Options, sched EpisodeSchedule, versions ...Version) error {
	jobs := make([]campaignJob, len(versions))
	for i, v := range versions {
		jobs[i] = campaignJob{v: v, o: o}
	}
	return e.prewarmJobs(sched, jobs)
}

// --- package-level wrappers over the default engine ----------------------

// SetWorkers bounds the default engine's concurrency and returns the
// previous bound.
//
// Deprecated: use press.New(press.WithWorkers(n)) or an explicit Engine.
func SetWorkers(n int) int { return defaultEngine.SetWorkers(n) }

// Workers returns the default engine's worker-pool bound.
//
// Deprecated: use an explicit Engine.
func Workers() int { return defaultEngine.Workers() }

// RunOnPool executes fn holding one default-engine pool slot.
func RunOnPool(fn func()) { defaultEngine.RunOnPool(fn) }

// MemoStats reports the default engine's memo sizes.
func MemoStats() (episodes, campaigns, saturations int) { return defaultEngine.MemoStats() }

// ResetMemos clears the default engine's memo tables.
func ResetMemos() { defaultEngine.ResetMemos() }

// RunEpisode performs one single-fault phase-1 measurement on the
// default engine.
func RunEpisode(v Version, o Options, f faults.Type, comp int, sched EpisodeSchedule) (Episode, error) {
	return defaultEngine.RunEpisode(v, o, f, comp, sched)
}

// SnapMemoized memoizes on the default engine's snapshot table.
func SnapMemoized(key string, compute func() (any, error)) (any, error) {
	return defaultEngine.SnapMemoized(key, compute)
}

// SnapMemoStats reports the default engine's snapshot-memo size.
func SnapMemoStats() int { return defaultEngine.SnapMemoStats() }
