// Package rpc implements the networked store backend: shard servers that
// hold the frozen generations of a run's distributed data store and answer
// batched reads over TCP, plus the client, StoreBackend and Publisher that
// let the AMPC runtime pay the model's defining cost — adaptive remote reads
// against D_{i-1} — over real sockets instead of in-process arrays.
//
// Wire protocol (version 2, little-endian throughout):
//
//	handshake  the client sends the 8-byte magic "AMPCRPC2" once per
//	           connection; a server that reads anything else — a version 1
//	           client included — closes without answering.
//	request    u32 length | u8 op | payload   (length covers op + payload)
//	response   u32 length | u8 status | payload
//
// Connections are synchronous: one request is answered before the next is
// read. Reads coalesce instead of multiplexing: the client keeps at most one
// getBatch frame in flight per server, and the calls that arrive meanwhile
// queue and leave together in the next one, so the concurrent machines of a
// round pay about one round trip per server per adaptive step.
//
// Keys are 17 bytes (tag u8, A i64, B i64), values 16 bytes (A i64, B i64).
// Stores are addressed by (run, seq): run is a random 64-bit id drawn per
// publisher so concurrent runs sharing servers never collide, seq is the
// store generation within the run.
//
// Ops:
//
//	ping      req  —                                 resp —
//	put       req  run u64 | seq u64 | n u32 |
//	               n × (shard u32 | enc u8 | len u32 | len bytes)
//	          resp —
//	getBatch  req  run u64 | seq u64 | n u32 | n × key
//	          resp n × (code u8 | value)   code: 0 absent, 1 present,
//	                                       2 shard not resident here
//	getRange  req  run u64 | seq u64 | key | lo u32 | hi u32
//	          resp n u32 | n × value
//	count     req  run u64 | seq u64 | key
//	          resp n u32
//	free      req  run u64 | seq u64                 resp —
//
// A put carries the segment codec's own sections (dds.EncodeSections),
// each with its encoding byte (one encoding: the fixed-width section). A
// publisher fills each put frame with as many of one server's sections as
// fit in frameEager bytes (a larger section travels alone), so a generation
// costs a few round trips per server, not one per shard, and writes the
// frame as its header and views into the encoded segment, never copying a
// section into a request buffer. The server opens every
// section with dds.OpenSection — the decoder and checks behind
// dds.OpenSegment — and installs a frame's sections all or none; it probes
// them as the in-memory store does, so a remote read matches a local one.
package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"ampc/internal/dds"
)

const (
	handshakeMagic = "AMPCRPC2"

	opPing     = byte(1)
	opPut      = byte(2)
	opGetBatch = byte(3)
	opGetRange = byte(4)
	opCount    = byte(5)
	opFree     = byte(6)

	statusOK = byte(0)
	// statusErr is a terminal failure for the request (malformed frame, bad
	// section); the payload is the error message.
	statusErr = byte(1)
	// statusNoStore means the addressed generation (or the key's shard) is
	// not resident on this server — retryable against another replica.
	statusNoStore = byte(2)

	// codeAbsent/codePresent/codeNoShard are per-key result codes inside a
	// getBatch response.
	codeAbsent  = byte(0)
	codePresent = byte(1)
	codeNoShard = byte(2)

	keyBytes    = 17
	valBytes    = 16
	sectionHead = 9       // shard u32 | enc u8 | len u32 before each put section
	maxFrame    = 1 << 28 // 256 MiB cap on one frame's payload
	frameHead   = 5       // u32 length + op/status byte
	// frameEager is the largest payload buffer allocated on a header's word
	// alone; a larger claimed length must be paid for in bytes received.
	frameEager = 1 << 20
)

var le = binary.LittleEndian

func appendKey(buf []byte, k dds.Key) []byte {
	buf = append(buf, k.Tag)
	buf = le.AppendUint64(buf, uint64(k.A))
	return le.AppendUint64(buf, uint64(k.B))
}

func decodeKey(b []byte) dds.Key {
	return dds.Key{Tag: b[0], A: int64(le.Uint64(b[1:9])), B: int64(le.Uint64(b[9:17]))}
}

func appendValue(buf []byte, v dds.Value) []byte {
	buf = le.AppendUint64(buf, uint64(v.A))
	return le.AppendUint64(buf, uint64(v.B))
}

func decodeValue(b []byte) dds.Value {
	return dds.Value{A: int64(le.Uint64(b[0:8])), B: int64(le.Uint64(b[8:16]))}
}

// writeFrame sends one length-prefixed frame, its payload the pieces in
// order; tag is the op (requests) or status (responses). The caller flushes.
// The header goes in the writer's own buffer, so a frame allocates nothing.
func writeFrame(w *bufio.Writer, tag byte, payload ...[]byte) error {
	n := 1
	for _, p := range payload {
		n += len(p)
	}
	_, err := w.Write(append(le.AppendUint32(w.AvailableBuffer(), uint32(n)), tag))
	for _, p := range payload {
		_, err = w.Write(p) // a bufio error sticks: the last write reports it
	}
	return err
}

// readFrame reads one frame, reusing buf for the payload when it fits, and
// returns the tag byte, the payload, and the possibly-grown buffer. A header
// costs a peer 5 bytes, so a claimed length beyond both buf and frameEager
// allocates nothing up front: the buffer doubles as payload bytes actually
// arrive, and a peer that sends a hostile length and stops costs at most
// frameEager. io.EOF means the stream ended cleanly between frames; a stream
// that ends inside a frame reads io.ErrUnexpectedEOF.
func readFrame(r *bufio.Reader, buf []byte) (byte, []byte, []byte, error) {
	head, err := r.Peek(frameHead)
	if err != nil {
		if err == io.EOF && len(head) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, buf, err
	}
	length, tag := le.Uint32(head[0:4]), head[4]
	r.Discard(frameHead)
	if length < 1 || length > maxFrame {
		return 0, nil, buf, fmt.Errorf("rpc: frame length %d outside [1, %d]", length, maxFrame)
	}
	n := int(length) - 1
	if cap(buf) < n && n <= frameEager {
		buf = make([]byte, n)
	}
	// One ReadFull when buf already holds n; otherwise fill, double, repeat.
	payload := buf[:0]
	for len(payload) < n {
		if len(payload) == cap(payload) {
			grown := make([]byte, len(payload), min(n, max(2*cap(payload), frameEager)))
			copy(grown, payload)
			payload = grown
		}
		have := len(payload)
		payload = payload[:min(cap(payload), n)]
		if _, err := io.ReadFull(r, payload[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, buf, err
		}
	}
	return tag, payload, payload, nil
}
