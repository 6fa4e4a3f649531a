// Package cluster is the shared L2 cache tier: a compact binary
// protocol (this file), consistent-hash routing across daemon
// addresses (ring.go), the client side implementing tier.Tier
// (client.go), and the daemon side serving any tier.Tier over a
// listener (server.go). cmd/wscached is the daemon binary; DESIGN.md
// §5h documents the wire format and the epoch-propagation rules.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ProtocolVersion is the wire protocol version carried in every frame
// header. A peer speaking a different version is refused outright
// (ErrVersionSkew): the protocol has no negotiation, matching versions
// are a deployment invariant like the shared key-generation strategy.
//
// Version 2 added the mirror cursor to SYNC and BUMP requests, which
// lets the daemon answer with the epoch-table delta.
const ProtocolVersion = 2

// DefaultMaxPayload bounds a frame's payload when the configuration
// does not say otherwise. Response values are cache entries, which the
// cache budgets far below this; anything larger is a corrupt or
// hostile frame.
const DefaultMaxPayload = 4 << 20

// headerSize is the fixed frame header: version (1), opcode (1),
// reserved (2, zero), payload length (4, big-endian).
const headerSize = 8

// Opcode identifies a frame's meaning. Requests have the high bit
// clear, responses set; OpErr is the universal failure response.
type Opcode byte

// Request opcodes.
const (
	OpGet  Opcode = 0x01 // payload: key hi, lo
	OpPut  Opcode = 0x02 // payload: key, ttl, rep, stamps, value
	OpDel  Opcode = 0x03 // payload: key hi, lo
	OpBump Opcode = 0x04 // payload: mirror cursor, keyspace list
	OpSync Opcode = 0x05 // payload: mirror cursor
	OpPing Opcode = 0x06 // payload: empty
)

// Response opcodes. Every response payload begins with the daemon's
// boot ID and epoch version (respMeta), the piggyback that drives
// cross-process invalidation: a client seeing a version ahead of its
// mirror syncs the epoch table, one seeing a changed boot ID knows the
// daemon restarted and lost state.
const (
	OpValue Opcode = 0x81 // OpGet hit: meta, ttl, rep, value
	OpMiss  Opcode = 0x82 // OpGet miss: meta
	OpOK    Opcode = 0x83 // OpPut/OpDel/OpPing: meta
	OpTable Opcode = 0x84 // OpSync/OpBump: meta, epochs changed since the cursor (or the full table)
	OpErr   Opcode = 0xFF // any request: error message
)

// valid reports whether op is a defined opcode.
func (o Opcode) valid() bool {
	switch o {
	case OpGet, OpPut, OpDel, OpBump, OpSync, OpPing,
		OpValue, OpMiss, OpOK, OpTable, OpErr:
		return true
	}
	return false
}

// Typed decode errors. Every malformed input maps onto one of these
// (possibly wrapped with position detail); the decoder never panics.
var (
	// ErrTruncated: the input ended inside a header or declared payload.
	ErrTruncated = errors.New("cluster: truncated frame")
	// ErrFrameTooLarge: the header declares a payload over the bound.
	ErrFrameTooLarge = errors.New("cluster: frame payload exceeds limit")
	// ErrVersionSkew: the peer speaks another protocol version.
	ErrVersionSkew = errors.New("cluster: protocol version mismatch")
	// ErrUnknownOpcode: the header names no defined opcode.
	ErrUnknownOpcode = errors.New("cluster: unknown opcode")
	// ErrMalformed: a payload's internal structure is inconsistent.
	ErrMalformed = errors.New("cluster: malformed payload")
)

// AppendFrame appends a complete frame (header + payload) to dst.
func AppendFrame(dst []byte, op Opcode, payload []byte) []byte {
	dst = append(dst, ProtocolVersion, byte(op), 0, 0)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// DecodeFrame decodes one frame from the front of b, returning the
// opcode, its payload (aliasing b), and the remaining bytes. maxPayload
// ≤ 0 means DefaultMaxPayload.
func DecodeFrame(b []byte, maxPayload int) (op Opcode, payload, rest []byte, err error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	if len(b) < headerSize {
		return 0, nil, b, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(b))
	}
	if b[0] != ProtocolVersion {
		return 0, nil, b, fmt.Errorf("%w: got %d, want %d", ErrVersionSkew, b[0], ProtocolVersion)
	}
	op = Opcode(b[1])
	if !op.valid() {
		return 0, nil, b, fmt.Errorf("%w: %#x", ErrUnknownOpcode, byte(op))
	}
	n := int(binary.BigEndian.Uint32(b[4:8]))
	if n > maxPayload {
		return 0, nil, b, fmt.Errorf("%w: %d bytes declared, limit %d", ErrFrameTooLarge, n, maxPayload)
	}
	if len(b) < headerSize+n {
		return 0, nil, b, fmt.Errorf("%w: payload declares %d bytes, %d available", ErrTruncated, n, len(b)-headerSize)
	}
	return op, b[headerSize : headerSize+n], b[headerSize+n:], nil
}

// writeFrame writes one frame to w. scratch, when non-nil, supplies a
// reusable buffer (per-connection, avoiding a fresh allocation per
// frame).
func writeFrame(w io.Writer, scratch *[]byte, op Opcode, payload []byte) error {
	var buf []byte
	if scratch != nil {
		buf = (*scratch)[:0]
	}
	buf = AppendFrame(buf, op, payload)
	if scratch != nil {
		*scratch = buf[:0]
	}
	_, err := w.Write(buf)
	return err
}

// readFrame reads one frame from r. The returned payload is freshly
// allocated; the caller owns it. Header validation mirrors DecodeFrame:
// a declared length over maxPayload is refused before any payload read,
// so a corrupt peer cannot make the reader allocate unboundedly.
func readFrame(r io.Reader, maxPayload int) (Opcode, []byte, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	var h [headerSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
		}
		return 0, nil, err
	}
	if h[0] != ProtocolVersion {
		return 0, nil, fmt.Errorf("%w: got %d, want %d", ErrVersionSkew, h[0], ProtocolVersion)
	}
	op := Opcode(h[1])
	if !op.valid() {
		return 0, nil, fmt.Errorf("%w: %#x", ErrUnknownOpcode, h[1])
	}
	n := int(binary.BigEndian.Uint32(h[4:8]))
	if n > maxPayload {
		return 0, nil, fmt.Errorf("%w: %d bytes declared, limit %d", ErrFrameTooLarge, n, maxPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: payload: short read", ErrTruncated)
		}
		return 0, nil, err
	}
	return op, payload, nil
}
