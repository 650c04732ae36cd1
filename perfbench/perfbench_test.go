package main

import (
	"math"
	"testing"
	"time"
)

// The spread rule uses Python's statistics.quantiles(xs, n=4); these
// are its outputs for the same inputs.
func TestPyQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		got := pyQuartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("pyQuartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"press/internal/sim.(*Sim).Step":          "sim",
		"press/internal/cnet.(*MsgPool[...]).Get": "cnet",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).Get":        "runtime",
		"encoding/gob.(*Decoder).Decode":          "stdlib",
		"syscall.Syscall":                         "stdlib",
		"main.micro":                              "other",
		"press.(*Cluster).Build":                  "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// The split reads the flat column of `go tool pprof -top -unit=ms`.
func TestSplitTop(t *testing.T) {
	top := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 40ms, 100% of 40ms total
      flat  flat%   sum%        cum   cum%
      20ms 50.00% 50.00%       20ms 50.00%  press/internal/sim.(*Sim).pop (inline)
      10ms 25.00% 75.00%       30ms 75.00%  runtime.mallocgc
      10ms 25.00%   100%       10ms 25.00%  sort.insertionSortLessFunc[go.shape.float64]
         0     0%   100%       40ms   100%  main.main
`)
	split, err := splitTop(top)
	if err != nil {
		t.Fatal(err)
	}
	for m, want := range map[string]float64{"sim": 0.5, "runtime": 0.25, "stdlib": 0.25, "other": 0} {
		if split[m] != want {
			t.Errorf("split[%s] = %v, want %v (%v)", m, split[m], want, split)
		}
	}
	if _, err := splitTop([]byte("no table")); err == nil {
		t.Error("output without a table gave no error")
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	time.Sleep(20 * time.Millisecond)
	inner()
	outer()
	tr.finish()
	o, i := tr.spans[0], tr.spans[1]
	if i.Parent != o.ID || o.Parent != 0 {
		t.Fatalf("parents: outer %d, inner %d", o.Parent, i.Parent)
	}
	if math.Abs(o.Self-(o.Dur-i.Dur)) > 1e-12 || i.Self != i.Dur {
		t.Errorf("self times: outer %v of %v, inner %v of %v", o.Self, o.Dur, i.Self, i.Dur)
	}
}
