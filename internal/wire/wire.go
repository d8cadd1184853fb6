// Package wire holds the primitives of MIRABEL's binary record codec:
// the byte-level vocabulary every hot record (flex-offers, schedules,
// offer records, measurements, message envelopes) is spelled in, on the
// TCP wire and in the store WAL alike.
//
//   - unsigned ints are uvarints, signed ints zig-zag varints (written
//     with encoding/binary's AppendUvarint/AppendVarint directly);
//   - a string is a uvarint byte length followed by the bytes;
//   - a float64 is its IEEE-754 bits, 8 bytes little-endian, so a round
//     trip is bit-exact (NaN payloads and −0 included — validation, not
//     the codec, keeps non-finite values out);
//   - a bool is one byte, 0 or 1;
//   - a sequence is a uvarint element count followed by the elements.
//
// Encoders are Append functions into the caller's buffer and cannot
// fail. Decoding goes through Reader, whose error is sticky: decode a
// whole record unconditionally, then check Err once. Every length and
// count prefix is checked against the bytes that remain before anything
// is allocated, so a hostile prefix cannot make a decoder allocate more
// than the input it was handed.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
)

// ErrShort reports a record that ends before its contents do: a length
// or count prefix, or a fixed-width field, reaches past the input.
var ErrShort = errors.New("wire: record shorter than its contents claim")

// ErrMalformed reports bytes that are not a valid encoding (varint
// overflow, a bool that is neither 0 nor 1, bytes left after a record).
var ErrMalformed = errors.New("wire: malformed record")

// AppendString appends s length-prefixed.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendFloat64 appends f's IEEE-754 bits.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// MaxPooledBuf bounds the encode and read buffers anything keeps for
// reuse: the occasional huge record is allocated once and dropped
// instead of pinning megabytes behind a pool or a connection.
const MaxPooledBuf = 1 << 20

// bufPool recycles encode buffers, so steady-state traffic frames
// records without allocating scratch per record.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuf returns an empty encode buffer from the pool; hand it back
// with PutBuf once nothing references its bytes.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns b to the pool unless it grew past MaxPooledBuf.
func PutBuf(b *[]byte) {
	if cap(*b) <= MaxPooledBuf {
		bufPool.Put(b)
	}
}

// Reader decodes one record from a byte slice. The first failure sticks:
// every later read returns a zero value and Err reports that failure.
// Strings are copied out, so nothing a Reader returns — except Bytes
// and Rest — aliases its input.
type Reader struct {
	buf []byte
	err error
	tab Interner // nil: every String is a fresh copy
}

// Interner is the string table of one decoding pass, such as a log
// replay: a String read through it returns the copy made the first time
// those bytes were read, so a name repeated over thousands of records is
// allocated once. A table is not safe for concurrent use; whoever runs
// the pass owns it and drops it when the pass ends.
type Interner map[string]string

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// NewInterningReader returns a Reader over b whose strings come from
// tab; reading a string not yet in tab adds a copy of it.
func NewInterningReader(b []byte, tab Interner) Reader { return Reader{buf: b, tab: tab} }

// Err returns the first decoding failure, if any.
func (r *Reader) Err() error { return r.err }

// Done returns Err, or ErrMalformed when the record decoded cleanly but
// left bytes unread.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.err = ErrMalformed
	}
	return r.err
}

// Fail records err as the Reader's failure unless one already stuck;
// decoders use it for values that parse but mean nothing (an unknown
// enum code).
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// take returns the next n bytes as a view into the input.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.buf) {
		r.Fail(ErrShort)
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		if n == 0 {
			r.Fail(ErrShort)
		} else {
			r.Fail(ErrMalformed)
		}
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a one-byte bool.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(ErrMalformed)
		return false
	}
}

// Float64 reads IEEE-754 bits.
func (r *Reader) Float64() float64 {
	if b := r.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Count reads a sequence's element count and checks it against the
// bytes remaining, given that one element occupies at least minElem
// bytes — so the caller can size its slice from the result.
func (r *Reader) Count(minElem int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)/minElem) {
		r.Fail(ErrShort)
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string: a copy, or the interning
// table's copy of the same bytes.
func (r *Reader) String() string {
	b := r.Bytes()
	if r.tab == nil {
		return string(b)
	}
	if s, ok := r.tab[string(b)]; ok {
		return s
	}
	s := string(b)
	r.tab[s] = s
	return s
}

// Bytes reads a length-prefixed byte string as a view into the input:
// for a field the caller only compares or copies.
func (r *Reader) Bytes() []byte { return r.take(r.Count(1)) }

// Rest returns every unread byte as a view into the input and leaves
// the Reader empty.
func (r *Reader) Rest() []byte {
	b := r.buf
	r.buf = nil
	return b
}
