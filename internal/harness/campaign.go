package harness

import (
	"fmt"
	"sync"
	"time"

	"press/internal/avail"
	"press/internal/faults"
)

// CampaignResult is one version's complete phase-1 measurement set.
type CampaignResult struct {
	Version Version
	Opts    Options
	Normal  float64 // fault-free throughput
	Offered float64
	Loads   []avail.FaultLoad
	Eps     []Episode
}

// Model evaluates the phase-2 availability model over the campaign. Per
// the paper's footnote 1, W0 is the offered load (the server is assumed
// unsaturated under normal operation), so availability loss comes only
// from the fault stages; r.Normal is kept as the measured reference.
func (r CampaignResult) Model(env avail.Env) (avail.Result, error) {
	return avail.Availability(r.Offered, r.Offered, r.Loads, env)
}

// campEntry is a singleflight memo slot for one campaign.
type campEntry struct {
	done chan struct{}
	res  CampaignResult
	err  error
}

// Campaign runs one injection episode per applicable Table 1 fault class
// and assembles the fault loads for the phase-2 model. The episodes run
// concurrently on the engine's worker pool; each is independently
// memoized, so a campaign and a figure that share a (version, fault)
// episode simulate it once. The campaign itself is also memoized with
// singleflight semantics: the simulator is deterministic, so a campaign
// is a pure function of its parameters, and concurrent requests for the
// same campaign share one assembly.
func (e *Engine) Campaign(v Version, o Options, sched EpisodeSchedule) (CampaignResult, error) {
	o = o.withDefaults()
	sched = sched.withDefaults()
	key := fmt.Sprintf("%s|%+v|%+v", v, o, sched)
	e.campMu.Lock()
	if m, ok := e.campMemo[key]; ok {
		e.campMu.Unlock()
		<-m.done
		return m.res, m.err
	}
	m := &campEntry{done: make(chan struct{})}
	e.campMemo[key] = m
	e.campMu.Unlock()

	m.res, m.err = e.runCampaign(v, o, sched)
	close(m.done)
	return m.res, m.err
}

// Campaign measures a version's full Table 1 fault load on the default
// engine.
func Campaign(v Version, o Options, sched EpisodeSchedule) (CampaignResult, error) {
	return defaultEngine.Campaign(v, o, sched)
}

// runCampaign fans the campaign's episodes out on the worker pool and
// assembles the result in Table 1 order (so the output is independent of
// completion order).
func (e *Engine) runCampaign(v Version, o Options, sched EpisodeSchedule) (CampaignResult, error) {
	res := CampaignResult{Version: v, Opts: o}
	// Resolve the shared 90%-of-saturation load once, up front: otherwise
	// every episode's Build races to the same (memoized) probe and the
	// losers idle in the pool while the winner measures.
	if o.Rate <= 0 {
		e.Saturation(v, o)
	}
	// Likewise capture the warm prefix once before the fan-out, so the
	// episodes restore from it instead of queueing behind its
	// singleflight.
	if _, err := e.warmCaptureFor(v, o, sched); err != nil {
		return res, err
	}
	specs := faults.Table1(serverCount(v, o), 2, versionTraits(v).fe)
	eps := make([]Episode, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		i, spec := i, spec
		wg.Add(1)
		// Orchestration-only goroutine: each immediately blocks inside
		// RunEpisode on the engine's worker-pool slot, so simulator
		// parallelism stays bounded by SetWorkers.
		go func() { //availlint:allow simgoroutine bounded by the engine worker pool
			defer wg.Done()
			eps[i], errs[i] = e.RunEpisode(v, o, spec.Type, DefaultComponent(spec.Type), sched)
		}()
	}
	wg.Wait()
	for i, spec := range specs {
		if errs[i] != nil {
			return res, errs[i]
		}
		ep := eps[i]
		res.Eps = append(res.Eps, ep)
		res.Loads = append(res.Loads, avail.FaultLoad{Spec: spec, Tpl: ep.Tpl})
		if ep.Normal > res.Normal {
			res.Normal = ep.Normal
		}
		res.Offered = ep.Offered
	}
	return res, nil
}

// FastSchedule shortens an episode for tests: the stage structure is
// unchanged, only observation windows shrink.
func FastSchedule() EpisodeSchedule {
	return EpisodeSchedule{
		Settle:        40 * time.Second,
		FaultActive:   100 * time.Second,
		ObserveRepair: 60 * time.Second,
		ResetLimit:    60 * time.Second,
		ObserveG:      45 * time.Second,
	}
}

// FastOptions shrinks the world for tests: a quarter-size document set
// with quarter-size caches (so the cache-to-working-set ratios — and with
// them the INDEP-disk-bound / COOP-CPU-bound regime — are preserved while
// caches warm four times faster) and a shorter ramp.
func FastOptions(seed int64) Options {
	return Options{
		Seed:       seed,
		Warmup:     2 * time.Minute,
		Docs:       6500,
		CacheBytes: 32 << 20,
	}
}
