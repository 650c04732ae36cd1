package simnet

import (
	"testing"
	"time"

	"press/internal/cnet"
	"press/internal/sim"
)

// arrival is one multicast delivery as a recipient saw it.
type arrival struct {
	at   time.Duration
	node cnet.NodeID
}

// multicastRun sends a stream of multicasts over a group with gray
// lossy links, batched or not, and returns every delivery in order, the
// events fired and the next value the loss rng would draw.
func multicastRun(batch bool, lossy map[cnet.NodeID]time.Duration) ([]arrival, uint64, float64) {
	s := sim.New(3)
	cfg := DefaultConfig()
	cfg.BatchDelivery = batch
	n := New(s, cfg, nil)
	var got []arrival
	for id := cnet.NodeID(0); id < 8; id++ {
		id := id
		i := n.AddIface(id)
		i.JoinGroup("g")
		i.BindDatagram("p", func(from cnet.NodeID, m cnet.Message) {
			got = append(got, arrival{s.Now(), id})
		})
		if extra, ok := lossy[id]; ok {
			i.SetLossy(0.3, extra)
		}
	}
	var msg cnet.Message = "beat"
	for k := 0; k < 200; k++ {
		n.Iface(cnet.NodeID(k%3)).Multicast("g", "p", msg, 64)
		s.RunFor(time.Millisecond)
	}
	s.Run()
	return got, s.EventsFired(), n.lossRng.Float64()
}

// Batched delivery must be indistinguishable from per-datagram delivery
// when recipients sit behind degraded links: the same arrival time per
// recipient, in the same order, the same loss-rng consumption and the
// same count of fired events.
func TestBatchedMatchesUnbatchedUnderLoss(t *testing.T) {
	cases := map[string]map[cnet.NodeID]time.Duration{
		"one lossy recipient":         {5: 3 * time.Millisecond},
		"lossy sender":                {1: 2 * time.Millisecond},
		"lossy without latency":       {4: 0},
		"several lossy, mixed delays": {2: time.Millisecond, 6: 0, 7: 5 * time.Millisecond},
	}
	for name, lossy := range cases {
		t.Run(name, func(t *testing.T) {
			want, wantFired, wantNext := multicastRun(false, lossy)
			got, gotFired, gotNext := multicastRun(true, lossy)
			if len(got) != len(want) {
				t.Fatalf("batched delivered %d datagrams, unbatched %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("delivery %d: batched %+v, unbatched %+v", i, got[i], want[i])
				}
			}
			if gotFired != wantFired {
				t.Errorf("batched fired %d events, unbatched %d", gotFired, wantFired)
			}
			if gotNext != wantNext {
				t.Errorf("loss rng consumed differently: next draw %v batched, %v unbatched", gotNext, wantNext)
			}
		})
	}
}
