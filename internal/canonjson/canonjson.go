// Package canonjson reads, in one pass and without reflection, the
// canonical JSON that encoding/json writes for the service's wire types:
// objects, arrays, ASCII keys and strings without escapes, RFC 8259
// numbers, true, false, null and JSON whitespace.
//
// A Reader never reports an error. Anything outside that subset marks it
// failed; every later Next returns false, and the caller throws its
// partial value away and decodes the whole input with encoding/json. A
// caller decodes a key only as encoding/json would and fails the reader
// on every other key, so a value read through a Reader equals the value
// encoding/json decodes, and every error a caller returns is
// encoding/json's own.
package canonjson

import "strconv"

// Reader scans one JSON document held in memory. Make one with NewReader.
type Reader struct {
	data  []byte
	pos   int
	first bool // the container Begin opened last has no element yet
	ok    bool
}

// NewReader returns a Reader at the start of data.
func NewReader(data []byte) Reader { return Reader{data: data, ok: true} }

// Fail marks the input as outside the subset the caller decodes: an
// unknown key, or a value its type does not take on this path.
func (r *Reader) Fail() { r.ok = false }

// End reports whether everything read was inside the subset and only
// whitespace follows it.
func (r *Reader) End() bool {
	r.space()
	return r.ok && r.pos == len(r.data)
}

// space skips JSON whitespace.
func (r *Reader) space() {
	for r.pos < len(r.data) && r.data[r.pos] <= ' ' {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (r *Reader) peek() byte {
	r.space()
	if r.pos < len(r.data) {
		return r.data[r.pos]
	}
	return 0
}

// Begin consumes the opening delimiter, '{' or '[', of a container.
func (r *Reader) Begin(open byte) {
	if r.peek() != open {
		r.ok = false
		return
	}
	r.pos++
	r.first = true
}

// Next reports whether the container Begin opened has another element,
// consuming the comma before it, or the closing delimiter close ('}' or
// ']') after the last one. It returns false once the reader has failed.
// The element itself is checked by the read that follows, so a comma
// before the closing delimiter fails there.
func (r *Reader) Next(close byte) bool {
	if !r.ok {
		return false
	}
	switch c := r.peek(); {
	case c == close:
		r.pos++
		r.first = false
		return false
	case r.first:
		r.first = false
		return true
	case c == ',':
		r.pos++
		return true
	}
	r.ok = false
	return false
}

// Key reads an object key and the colon after it.
func (r *Reader) Key() []byte {
	k := r.bytes()
	if r.peek() != ':' {
		r.ok = false
		return nil
	}
	r.pos++
	return k
}

// plain marks the bytes a string in the subset holds: printable ASCII
// but the quote and the backslash, so no string needs unescaping.
var plain = func() (t [256]bool) {
	for c := ' '; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// bytes reads a string and returns its contents.
func (r *Reader) bytes() []byte {
	if r.peek() != '"' {
		r.ok = false
		return nil
	}
	start := r.pos + 1
	i := start
	for i < len(r.data) && plain[r.data[i]] {
		i++
	}
	if i == len(r.data) || r.data[i] != '"' {
		r.ok = false
		return nil
	}
	r.pos = i + 1
	return r.data[start:i]
}

// Str reads a string.
func (r *Reader) Str() string { return string(r.bytes()) }

// Bool reads true or false.
func (r *Reader) Bool() bool {
	if r.literal("true") {
		return true
	}
	if !r.literal("false") {
		r.ok = false
	}
	return false
}

// Null consumes a null if one comes next and reports whether it did.
func (r *Reader) Null() bool { return r.literal("null") }

// literal consumes word if it comes next.
func (r *Reader) literal(word string) bool {
	r.space()
	if end := r.pos + len(word); end <= len(r.data) && string(r.data[r.pos:end]) == word {
		r.pos = end
		return true
	}
	return false
}

// number reads a number in RFC 8259's grammar and reports whether it is
// an integer, with neither fraction nor exponent.
func (r *Reader) number() (lit []byte, integer bool) {
	r.space()
	d, i := r.data, r.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		r.ok = false
		return nil, false
	}
	integer = true
	if i < len(d) && d[i] == '.' {
		integer = false
		if i = digits(d, i+1); d[i-1] == '.' {
			r.ok = false
			return nil, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		integer = false
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if j := digits(d, i); j > i {
			i = j
		} else {
			r.ok = false
			return nil, false
		}
	}
	lit, r.pos = d[r.pos:i], i
	return lit, integer
}

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// Uint reads an integer in uint64's range, as encoding/json reads one into
// an unsigned field.
func (r *Reader) Uint() uint64 {
	lit, integer := r.number()
	v, err := strconv.ParseUint(string(lit), 10, 64)
	if !integer || err != nil {
		r.ok = false
	}
	return v
}

// Int64 reads an integer in int64's range.
func (r *Reader) Int64() int64 {
	lit, integer := r.number()
	v, err := strconv.ParseInt(string(lit), 10, 64)
	if !integer || err != nil {
		r.ok = false
	}
	return v
}

// Int reads an integer in int's range.
func (r *Reader) Int() int {
	v := r.Int64()
	if int64(int(v)) != v {
		r.ok = false
	}
	return int(v)
}

// Float reads a number as encoding/json reads one into a float64 field:
// strconv.ParseFloat(s, 64), failing where it fails.
func (r *Reader) Float() float64 {
	lit, _ := r.number()
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		r.ok = false
	}
	return v
}

// Object returns the bytes of the object that comes next, for a decoder
// of its own to read. Its strings are held to the same subset.
func (r *Reader) Object() []byte {
	if r.peek() != '{' {
		r.ok = false
		return nil
	}
	start, depth := r.pos, 0
	for r.ok && r.pos < len(r.data) {
		switch r.data[r.pos] {
		case '"':
			r.bytes()
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				r.pos++
				return r.data[start:r.pos]
			}
		}
		r.pos++
	}
	r.ok = false
	return nil
}
