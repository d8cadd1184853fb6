package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"unsafe"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, math.MaxUint64)
	b = binary.AppendVarint(b, math.MinInt64)
	b = binary.AppendVarint(b, math.MaxInt64)
	b = binary.AppendVarint(b, -1)
	b = AppendString(b, "")
	b = AppendString(b, "household-17")
	rawAt := len(b) + 1 // past the one-byte length
	b = AppendString(b, "raw")
	b = AppendFloat64(b, math.Copysign(0, -1))
	b = AppendFloat64(b, math.Float64frombits(0x7ff8dead0000beef)) // a NaN with a payload
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = append(b, 0xAB, 1, 2, 3)

	r := NewReader(b)
	if v := r.Uvarint(); v != 0 {
		t.Errorf("uvarint 0 = %d", v)
	}
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Errorf("uvarint max = %d", v)
	}
	for _, want := range []int64{math.MinInt64, math.MaxInt64, -1} {
		if v := r.Varint(); v != want {
			t.Errorf("varint = %d, want %d", v, want)
		}
	}
	if s := r.String(); s != "" {
		t.Errorf("empty string = %q", s)
	}
	if s := r.String(); s != "household-17" {
		t.Errorf("string = %q", s)
	}
	if raw := r.Bytes(); string(raw) != "raw" || &raw[0] != &b[rawAt] {
		t.Errorf("bytes = %q, want a view of the input", raw)
	}
	if f := r.Float64(); f != 0 || !math.Signbit(f) {
		t.Errorf("-0 = %g", f)
	}
	if f := r.Float64(); math.Float64bits(f) != 0x7ff8dead0000beef {
		t.Errorf("NaN bits = %#x", math.Float64bits(f))
	}
	if !r.Bool() || r.Bool() {
		t.Error("bools")
	}
	if c := r.Byte(); c != 0xAB {
		t.Errorf("byte = %#x", c)
	}
	if rest := r.Rest(); len(rest) != 3 || rest[2] != 3 || r.Done() != nil {
		t.Errorf("rest = %v, %v", rest, r.Err())
	}
	r = NewReader([]byte{1, 2})
	if r.Byte(); !errors.Is(r.Done(), ErrMalformed) {
		t.Errorf("a byte left after the record: Done = %v, want ErrMalformed", r.Err())
	}
}

// TestHostilePrefixes: a length or count prefix larger than what is left
// fails before anything is sized from it, and the failure sticks.
func TestHostilePrefixes(t *testing.T) {
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	for name, read := range map[string]func(r *Reader){
		"string":  func(r *Reader) { _ = r.String() },
		"bytes":   func(r *Reader) { _ = r.Bytes() },
		"count16": func(r *Reader) { r.Count(16) },
	} {
		r := NewReader(append(huge, 1, 2, 3))
		read(&r)
		if !errors.Is(r.Err(), ErrShort) {
			t.Errorf("%s: err = %v, want ErrShort", name, r.Err())
		}
		if r.Uvarint() != 0 || r.String() != "" || r.Float64() != 0 || r.Bool() || len(r.Rest()) != 0 {
			t.Errorf("%s: reads after a failure returned data", name)
		}
	}
	r := NewReader(append(binary.AppendUvarint(nil, 3), make([]byte, 47)...)) // 3 × 16 needs 48
	if n := r.Count(16); n != 0 || !errors.Is(r.Err(), ErrShort) {
		t.Errorf("Count(16) over 47 bytes = %d, %v", n, r.Err())
	}
	r = NewReader(append(binary.AppendUvarint(nil, 3), make([]byte, 48)...))
	if n := r.Count(16); n != 3 || r.Err() != nil {
		t.Errorf("Count(16) over 48 bytes = %d, %v", n, r.Err())
	}
	for name, raw := range map[string][]byte{
		"varint overflow": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"bool 2":          {2},
	} {
		r := NewReader(raw)
		if name == "bool 2" {
			r.Bool()
		} else {
			r.Uvarint()
		}
		if !errors.Is(r.Err(), ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, r.Err())
		}
	}
	r = NewReader([]byte{0x80})
	if r.Uvarint(); !errors.Is(r.Err(), ErrShort) {
		t.Errorf("truncated varint: err = %v, want ErrShort", r.Err())
	}
	r = NewReader([]byte{1, 2, 3})
	if r.Float64(); !errors.Is(r.Err(), ErrShort) {
		t.Errorf("truncated float: err = %v, want ErrShort", r.Err())
	}
}

// TestInterningReader: two records decoded through one table share the
// strings they repeat, and neither aliases the buffer they came from —
// overwriting it, as a replay reuses its read buffer, leaves the first
// record's strings as they were. A nil table behaves as NewReader.
func TestInterningReader(t *testing.T) {
	record := func(owner, prosumer string) []byte {
		return AppendString(AppendString(nil, owner), prosumer)
	}
	buf := make([]byte, 0, 64)
	read := func(r *Reader) (string, string) {
		t.Helper()
		a, b := r.String(), r.String()
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	tab := Interner{}
	buf = append(buf[:0], record("household-17", "household-17")...)
	r := NewInterningReader(buf, tab)
	owner, prosumer := read(&r)
	buf = append(buf[:0], record("household-18", "household-17")...)
	r = NewInterningReader(buf, tab)
	owner2, prosumer2 := read(&r)
	for i := range buf {
		buf[i] = 'x'
	}
	if owner != "household-17" || prosumer != "household-17" || owner2 != "household-18" || prosumer2 != "household-17" {
		t.Fatalf("decoded %q %q, then %q %q", owner, prosumer, owner2, prosumer2)
	}
	if unsafe.StringData(prosumer2) != unsafe.StringData(owner) || unsafe.StringData(prosumer) != unsafe.StringData(owner) {
		t.Error("a repeated string was copied again, not taken from the table")
	}
	if len(tab) != 2 {
		t.Errorf("table holds %d strings, want 2", len(tab))
	}

	buf = append(buf[:0], record("household-17", "household-17")...)
	r = NewInterningReader(buf, nil)
	a, b := read(&r)
	r = NewReader(buf)
	c, d := read(&r)
	if a != c || b != d || unsafe.StringData(a) == unsafe.StringData(b) {
		t.Errorf("a nil table decoded %q %q (shared: %v), NewReader %q %q", a, b, unsafe.StringData(a) == unsafe.StringData(b), c, d)
	}
	buf[1] = 'X'
	if a != "household-17" {
		t.Errorf("a string read with a nil table aliases its input: %q", a)
	}
}
