package harness

import (
	"runtime"
	"testing"
	"time"
)

// A warmed Faithful FME world — the version with a front-end, so every
// request crosses the relay — must serve its steady load nearly free of
// allocation: the relay, the stall path and the directory are pooled or
// dense, so what remains is the proc-clock timer handle of the periodic
// monitors and amortized pool growth, about 0.2 objects per request.
// With a closure set per relayed request it was about 8.
func TestFaithfulFMEAllocsPerServed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute simulated window")
	}
	o := FastOptions(1)
	o.Rate = 250 // fixed: saturation probing isn't the point here
	c := Build(VFME, o)
	c.Gen.Start()
	c.Sim.RunFor(o.Warmup + 30*time.Second) // warm caches and every pool

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	served := c.Rec.Succeeded
	c.Sim.RunFor(20 * time.Second)
	runtime.ReadMemStats(&m1)
	served = c.Rec.Succeeded - served
	if served < 4000 || c.Rec.Failed > 0 {
		t.Fatalf("%d requests served, %d failed: the world is not in steady state", served, c.Rec.Failed)
	}
	per := float64(m1.Mallocs-m0.Mallocs) / float64(served)
	if per > 1 {
		t.Errorf("%.2f objects allocated per served request over %d requests; want at most 1", per, served)
	}
}
