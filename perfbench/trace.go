package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// span is one timed call into the program, recorded by the benchmark
// around a public entry point.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	Dur    float64 `json:"dur_s"`
	Self   float64 `json:"self_s"` // Dur minus the time child spans cover
}

// tracer keeps spans in memory; a nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it. Spans nest
// by call order on the benchmark's own goroutine.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, id)
	return func() {
		sp := &t.spans[id-1]
		sp.Dur = time.Since(t.t0).Seconds() - sp.Start
		t.open = t.open[:len(t.open)-1]
	}
}

// finish computes every span's self time.
func (t *tracer) finish() {
	child := make([]float64, len(t.spans)+1)
	for _, sp := range t.spans {
		child[sp.Parent] += sp.Dur
	}
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].Dur - child[t.spans[i].ID]
	}
}

// spanTotal is the per-name aggregate written beside the spans.
type spanTotal struct {
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// write stores the spans, their per-name totals and the module split as
// JSON under dir and returns the file's path.
func (t *tracer) write(dir, workload string, seed int64, layers map[string]float64) (string, error) {
	byName := map[string]*spanTotal{}
	for _, sp := range t.spans {
		// Chaos seeds fold into one row; episodes keep one row per
		// fault class.
		key := sp.Name
		if strings.HasPrefix(key, "seed ") {
			key = "seed"
		}
		st := byName[key]
		if st == nil {
			st = &spanTotal{}
			byName[key] = st
		}
		st.Count++
		st.Total += sp.Dur
		st.Self += sp.Self
	}
	doc := struct {
		Workload string                `json:"workload"`
		Seed     int64                 `json:"seed"`
		Spans    []span                `json:"spans"`
		ByName   map[string]*spanTotal `json:"by_name"`
		Layers   map[string]float64    `json:"layer_self_frac"`
	}{workload, seed, t.spans, byName, layers}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, data, 0o644)
}

// layerModules are the program's modules (press/internal/<module>) that
// run in a benchmark process; the split adds runtime, stdlib and other.
var layerModules = []string{
	"avail", "chaos", "clock", "cnet", "faults", "fme", "frontend", "harness",
	"livenet", "machine", "membership", "metrics", "qmon", "server", "sim",
	"simdisk", "simnet", "snapio", "snapshot", "template7", "trace", "workload",
	"runtime", "stdlib", "other",
}

// moduleOf names the layer a leaf function belongs to.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "press/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	switch {
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "gcWriteBarrier"):
		return "runtime"
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "press."):
		return "other"
	}
	// Standard-library import paths have no dot in their first element.
	first := fn
	if i := strings.IndexAny(first, "/."); i > 0 {
		first = first[:i]
	}
	if !strings.Contains(first, ".") && first != "" {
		return "stdlib"
	}
	return "other"
}

// layerSplit writes a CPU profile to path and sums its self time per
// module, as fractions of the total, from `go tool pprof -top`.
func layerSplit(prof []byte, path string) (map[string]float64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, prof, 0o644); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Second)
	defer cancel()
	top, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=0",
		"-nodefraction=0", "-edgefraction=0", "-symbolize=none", "-unit=ms", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v", err)
	}
	return splitTop(top)
}

// splitTop sums the flat column of `pprof -top -unit=ms` output per
// module. pprof names each row by its innermost inlined function: the
// one the sample's time belongs to.
func splitTop(top []byte) (map[string]float64, error) {
	self := map[string]float64{}
	total := 0.0
	rows := false
	for _, line := range strings.Split(string(top), "\n") {
		f := strings.Fields(line)
		if len(f) == 5 && f[0] == "flat" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", line, err)
		}
		self[moduleOf(f[5])] += v
		total += v
	}
	if !rows {
		return nil, fmt.Errorf("pprof printed no table:\n%s", top)
	}
	out := map[string]float64{}
	for _, m := range layerModules {
		out[m] = 0
		if total > 0 {
			out[m] = self[m] / total
		}
	}
	return out, nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
