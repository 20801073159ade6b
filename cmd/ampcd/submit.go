package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// rows is an inline array of integer rows held flat: row i is
// vals[ends[i-1]:ends[i]], with ends[-1] taken as 0. Rows may have any
// width; the algorithm's input kind decides which width it accepts.
type rows struct {
	vals []int
	ends []int
}

func (r *rows) len() int { return len(r.ends) }

func (r *rows) row(i int) []int {
	start := 0
	if i > 0 {
		start = r.ends[i-1]
	}
	return r.vals[start:r.ends[i]]
}

// readBody reads a submission's body whole. A declared Content-Length
// sizes the buffer once; a body of unknown length grows it by doubling, but
// never past the maxSubmitBytes+1 bytes that show a body is over the cap.
func readBody(body io.Reader, declared int64) ([]byte, error) {
	size := int64(512)
	if 0 <= declared && declared <= maxSubmitBytes {
		size = declared + 1 // room for the read that returns io.EOF
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(1, min(len(buf), maxSubmitBytes+1-len(buf))))
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// errNullInteger refuses a null where an inline row or "next" needs an
// integer. encoding/json would leave such an element as it found it: 0 in
// a fresh slice, an earlier duplicate key's value in a reused one.
var errNullInteger = errors.New("null where an integer belongs")

// decodeSubmit decodes a submission body read whole, in one pass over its
// top-level object. "edges" and "next" parse in place into flat integers.
// Every other member is copied into a small object that encoding/json
// decodes into the same request. Keys match as encoding/json matches them:
// unescaped, case-insensitively, the last duplicate winning, unknown keys
// ignored. As with a json.Decoder, bytes after the object are not looked
// at, and a null body decodes to an empty request.
func decodeSubmit(b []byte) (*submitRequest, error) {
	s := &scanner{b: b}
	req := new(submitRequest)
	if s.null() {
		return req, nil
	}
	if !s.eat('{') {
		return nil, s.errorf("want a JSON object")
	}
	rest := []byte{'{'}
	if !s.eat('}') {
		for {
			key, err := s.str()
			if err != nil {
				return nil, err
			}
			if !s.eat(':') {
				return nil, s.errorf("want ':' after object key")
			}
			switch {
			case keyIs(key, "edges"):
				if req.Edges, err = s.rows(); err != nil {
					return nil, err
				}
			case keyIs(key, "next"):
				req.Next = nil
				if !s.null() {
					if req.Next, err = s.ints([]int{}, s.i, "next"); err != nil {
						return nil, err
					}
				}
			default:
				v, err := s.value()
				if err != nil {
					return nil, err
				}
				if len(rest) > 1 {
					rest = append(rest, ',')
				}
				rest = append(append(append(rest, key...), ':'), v...)
			}
			if s.eat(',') {
				continue
			}
			if s.eat('}') {
				break
			}
			return nil, s.errorf("want ',' or '}' after object member")
		}
	}
	if err := json.Unmarshal(append(rest, '}'), req); err != nil {
		return nil, err
	}
	return req, nil
}

// keyIs reports whether a quoted object key names the field name as
// encoding/json matches keys to fields: unescaped, then compared under
// Unicode case folding, so "EDGES" and "edgeſ" both name edges.
func keyIs(key []byte, name string) bool {
	inner := key[1 : len(key)-1]
	if bytes.IndexByte(inner, '\\') < 0 {
		return bytes.EqualFold(inner, []byte(name))
	}
	var k string
	return json.Unmarshal(key, &k) == nil && strings.EqualFold(k, name)
}

// scanner walks a submission body. Besides the inline arrays it parses
// strictly, it only finds where values end: a key or value it copies out is
// checked by encoding/json, which refuses whatever bytes it refuses.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) errorf(format string, args ...any) error {
	if s.i >= len(s.b) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("offset %d: "+format, append([]any{s.i}, args...)...)
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c, after any white space, if it comes next.
func (s *scanner) eat(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// null consumes a null literal, after any white space, if one comes next.
func (s *scanner) null() bool {
	s.space()
	if bytes.HasPrefix(s.b[s.i:], []byte("null")) {
		s.i += 4
		return true
	}
	return false
}

// str consumes a string, after any white space, and returns it with its
// quotes.
func (s *scanner) str() ([]byte, error) {
	s.space()
	start := s.i
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, s.errorf("want a string")
	}
	for s.i++; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case '\\':
			s.i++
		case '"':
			s.i++
			return s.b[start:s.i], nil
		}
	}
	return nil, io.ErrUnexpectedEOF
}

// value consumes one value, after any white space, and returns its bytes:
// a string up to its closing quote, an array or object up to the bracket
// that closes it, anything else up to the next delimiter.
func (s *scanner) value() ([]byte, error) {
	s.space()
	start, depth := s.i, 0
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '"':
			if _, err := s.str(); err != nil {
				return nil, err
			}
			if depth == 0 {
				return s.b[start:s.i], nil
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return s.b[start:s.i], nil
			}
			if depth--; depth == 0 {
				s.i++
				return s.b[start:s.i], nil
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return s.b[start:s.i], nil
			}
		}
		s.i++
	}
	return nil, io.ErrUnexpectedEOF
}

// rows parses the "edges" value: null (no inline edges) or an array whose
// elements are arrays of integers or null (a row of no elements).
func (s *scanner) rows() (*rows, error) {
	if s.null() {
		return nil, nil
	}
	if !s.eat('[') {
		return nil, s.errorf("edges: want an array of rows")
	}
	start, r := s.i, &rows{}
	if s.eat(']') {
		return r, nil
	}
	for {
		if !s.null() {
			var err error
			if r.vals, err = s.ints(r.vals, start, "edges"); err != nil {
				return nil, err
			}
		}
		r.ends = s.push(r.ends, len(r.vals), start)
		if s.eat(',') {
			continue
		}
		if s.eat(']') {
			return r, nil
		}
		return nil, s.errorf("edges: want ',' or ']' after a row")
	}
}

// ints appends the integers of one array of name to dst, which holds an
// array whose bytes start at b[start].
func (s *scanner) ints(dst []int, start int, name string) ([]int, error) {
	if !s.eat('[') {
		return nil, s.errorf("%s: want an array of integers", name)
	}
	if s.eat(']') {
		return dst, nil
	}
	for {
		v, err := s.int()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		dst = s.push(dst, v, start)
		if s.eat(',') {
			continue
		}
		if s.eat(']') {
			return dst, nil
		}
		return nil, s.errorf("%s: want ',' or ']' after an integer", name)
	}
}

// int reads one integer, after any white space, as encoding/json stores a
// number into an int: a fraction, an exponent, a leading zero or a value
// outside int is refused.
func (s *scanner) int() (int, error) {
	s.space()
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	first := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		u = u*10 + uint64(b[i]-'0')
	}
	digits := i - first
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	switch {
	case digits == 0 && !neg && bytes.HasPrefix(b[i:], []byte("null")):
		return 0, s.errorf("%w", errNullInteger)
	case digits == 0:
		return 0, s.errorf("want an integer")
	case digits > 1 && b[first] == '0':
		return 0, s.errorf("integer with a leading zero")
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		return 0, s.errorf("want an integer, got a fraction or an exponent")
	case digits > 19 || u > limit:
		return 0, s.errorf("integer %s out of range", b[s.i:i])
	}
	s.i = i
	if neg {
		return int(-u), nil
	}
	return int(u), nil
}

// push appends v to dst, which holds an array whose bytes start at
// b[start]. A full dst grows towards the length its bytes so far predict for
// an array running to the end of the body, by a factor between 2 and 8, so
// an array of any length costs a handful of allocations.
func (s *scanner) push(dst []int, v, start int) []int {
	if n := len(dst); n == cap(dst) {
		grow := max(n, 64)
		if read := s.i - start; read > 0 {
			want := n * (len(s.b) - start) / read
			grow = max(grow, min(want+want/8-n, 7*n))
		}
		dst = slices.Grow(dst, grow)
	}
	return append(dst, v)
}
