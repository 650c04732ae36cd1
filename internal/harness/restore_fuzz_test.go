package harness

import (
	"fmt"
	"runtime/debug"
	"testing"
)

// restoreMutated restores one corrupted warm capture. A corrupt stream
// must come back as an error or as a world, never as a panic; a panic is
// reported with its stack.
func restoreMutated(w *warmCapture, blob []byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	m := *w
	m.blob = blob
	if _, rerr := m.restore(); rerr != nil {
		return nil // a clean rejection is the expected outcome
	}
	return nil
}

// mutationCaptures returns fast-profile warm captures of COOP and FME,
// the seed corpus of the corruption tests.
func mutationCaptures(tb testing.TB) []*warmCapture {
	e := NewEngine(0)
	var ws []*warmCapture
	for _, v := range []Version{VCOOP, VFME} {
		w, err := e.warmCaptureFor(v, FastOptions(1), FastSchedule())
		if err != nil {
			tb.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// TestRestoreNeverPanics restores single-byte corruptions of a COOP and
// an FME warm capture at a fixed stride: every one must yield an error
// or a world.
func TestRestoreNeverPanics(t *testing.T) {
	perCapture := 160
	if testing.Short() {
		perCapture = 40
	}
	for _, w := range mutationCaptures(t) {
		stride := len(w.blob)/perCapture + 1
		for i := 0; i < len(w.blob); i += stride {
			blob := append([]byte(nil), w.blob...)
			blob[i] ^= 0xA5
			if err := restoreMutated(w, blob); err != nil {
				t.Errorf("%s capture, byte %d of %d: %v", w.v, i, len(w.blob), err)
			}
		}
	}
}

// FuzzRestoreSnapshot feeds arbitrary world streams to the restore path
// of a COOP and an FME topology, seeded with their warm captures.
func FuzzRestoreSnapshot(f *testing.F) {
	ws := mutationCaptures(f)
	for i, w := range ws {
		f.Add(uint8(i), w.blob)
	}
	f.Fuzz(func(t *testing.T, which uint8, blob []byte) {
		w := ws[int(which)%len(ws)]
		if err := restoreMutated(w, blob); err != nil {
			t.Fatal(err)
		}
	})
}
