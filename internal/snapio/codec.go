// Package snapio holds the low-level machinery the snapshot engine is
// built from: a compact varint codec, the shared save/load context that
// subsystems claim pending kernel events and exchange object references
// through, and an in-place capturer for math/rand generator state.
//
// It deliberately imports nothing above the standard library so that
// every simulation package (simnet, machine, server, workload, ...) can
// depend on it without cycles; the orchestration lives in
// internal/snapshot.
package snapio

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// SnapError is the panic payload snapshot code raises on a structural
// problem (unclaimed pending event, unknown message type, corrupt
// stream). Take/Restore recover it at the boundary and surface it as an
// ordinary error.
type SnapError struct{ Msg string }

func (e *SnapError) Error() string { return "snapshot: " + e.Msg }

// Failf raises a SnapError; the snapshot boundary converts it to error.
func Failf(format string, args ...any) {
	panic(&SnapError{Msg: fmt.Sprintf(format, args...)})
}

// Encoder appends a varint-based byte stream. It cannot fail.
type Encoder struct{ buf []byte }

// Bytes returns the encoded stream.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current stream length.
func (e *Encoder) Len() int { return len(e.buf) }

// U64 appends an unsigned varint.
func (e *Encoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends a signed (zig-zag) varint.
func (e *Encoder) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends an int.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Dur appends a time.Duration.
func (e *Encoder) Dur(v time.Duration) { e.I64(int64(v)) }

// Bool appends a boolean.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// F64 appends a float64 bit pattern.
func (e *Encoder) F64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Decoder reads an Encoder stream. The first malformed read makes the
// error sticky and every subsequent read returns zero values, so decode
// code can run straight-line and check Err once at the end; structural
// validation (counts, tags) additionally raises SnapError via Failf.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps an encoded stream.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Done reports whether the stream is fully consumed without error.
func (d *Decoder) Done() bool { return d.err == nil && d.off == len(d.buf) }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: corrupt stream: bad %s at offset %d", what, d.off)
	}
}

// U64 reads an unsigned varint.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

// I64 reads a signed varint.
func (d *Decoder) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

// Int reads an int.
func (d *Decoder) Int() int { return int(d.I64()) }

// Dur reads a time.Duration.
func (d *Decoder) Dur() time.Duration { return time.Duration(d.I64()) }

// Bool reads a boolean.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("bool")
		return false
	}
	b := d.buf[d.off]
	d.off++
	return b != 0
}

// F64 reads a float64.
func (d *Decoder) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.U64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("string length")
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Blob reads a length-prefixed byte slice (a copy).
func (d *Decoder) Blob() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("blob length")
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:d.off+int(n)])
	d.off += int(n)
	return b
}

// Count reads a non-negative element count and validates it against a
// sanity bound, guarding slice preallocation against corrupt streams.
func (d *Decoder) Count(max int) int {
	n := d.Int()
	if n < 0 || n > max {
		Failf("count %d out of range [0,%d]", n, max)
	}
	return n
}

// Catch converts the Failf panic protocol into an ordinary error at a
// package boundary: deferred by Take/Restore-style entry points, it
// stores a recovered *SnapError in *err. Any other panic is a program
// bug and propagates unchanged.
func Catch(err *error) {
	if r := recover(); r != nil {
		se, ok := r.(*SnapError)
		if !ok {
			panic(r)
		}
		*err = se
	}
}
