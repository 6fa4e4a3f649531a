package cluster

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/tier"
)

// Message payload layouts. All integers are big-endian fixed width.
//
//	get/del req:  key.Hi u64 | key.Lo u64
//	put req:      bootID u64 | key.Hi u64 | key.Lo u64 | ttlNanos i64 |
//	              repLen u8 | rep | nStamps u16 |
//	              { ksLen u16 | ks | epoch u64 }* | value (rest)
//	sync req:     cursor
//	bump req:     cursor | n u16 | { ksLen u16 | ks }*
//	ping req:     empty
//	cursor:       bootID u64 | version u64
//	meta prefix (every response): bootID u64 | version u64
//	value resp:   meta | ttlNanos i64 | repLen u8 | rep | value (rest)
//	miss/ok resp: meta
//	table resp:   meta | n u32 | { ksLen u16 | ks | epoch u64 }*
//	err resp:     msgLen u16 | msg
//
// The put bootID is the daemon incarnation the sender's stamps were
// minted against. A daemon receiving a put for another incarnation
// drops it: stamp epochs from a previous boot are meaningless against
// the fresh epoch cells and could mask bumps (a stamp minted at epoch
// 5 would stay "fresh" through the first five post-restart bumps).
//
// The sync/bump cursor is the meta the sender's mirror of this daemon
// last absorbed (zero before first contact). When its boot ID is the
// daemon's own and its version is still inside the daemon's change
// log, the table response carries only the keyspaces advanced since
// that version, and its meta version is the one the delta is complete
// up to; otherwise it carries the whole table. The client merges both
// the same way, so it never needs to know which one it got.
//
// Strings (rep names, keyspaces) are bounded by their length prefix;
// the frame layer already bounds the whole payload, so decoders only
// need internal consistency checks, all funneled through the cursor.

// respMeta is the prefix of every non-error response: which daemon
// incarnation answered and how many epoch mutations it has seen. The
// client compares both against its per-node mirror after every round
// trip, and sends the pair it last absorbed back as the sync/bump
// cursor.
type respMeta struct {
	bootID  uint64
	version uint64
}

// cursor is a sticky-error reader over a payload. After the first
// failure every subsequent read returns zero values, so decoders can
// read a whole layout linearly and check err once.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: short %s", ErrMalformed, what)
	}
}

func (c *cursor) u8(what string) byte {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 1 {
		c.fail(what)
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *cursor) u16(what string) uint16 {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 2 {
		c.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint16(c.b)
	c.b = c.b[2:]
	return v
}

func (c *cursor) u32(what string) uint32 {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 4 {
		c.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(c.b)
	c.b = c.b[4:]
	return v
}

func (c *cursor) u64(what string) uint64 {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 8 {
		c.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

// str reads n bytes as a string (copying out of the frame buffer).
func (c *cursor) str(n int, what string) string {
	if c.err != nil {
		return ""
	}
	if len(c.b) < n {
		c.fail(what)
		return ""
	}
	v := string(c.b[:n])
	c.b = c.b[n:]
	return v
}

// rest consumes the remaining bytes (the trailing value field).
func (c *cursor) rest() []byte {
	if c.err != nil {
		return nil
	}
	v := c.b
	c.b = nil
	return v
}

// done fails unless the payload was consumed exactly.
func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(c.b))
	}
	return nil
}

func (c *cursor) meta() respMeta {
	return respMeta{bootID: c.u64("boot id"), version: c.u64("version")}
}

func appendMeta(dst []byte, m respMeta) []byte {
	dst = binary.BigEndian.AppendUint64(dst, m.bootID)
	return binary.BigEndian.AppendUint64(dst, m.version)
}

func appendStr8(dst []byte, s string, what string) ([]byte, error) {
	if len(s) > 0xFF {
		return dst, fmt.Errorf("%w: %s %d bytes long", ErrMalformed, what, len(s))
	}
	dst = append(dst, byte(len(s)))
	return append(dst, s...), nil
}

func appendStr16(dst []byte, s string, what string) ([]byte, error) {
	if len(s) > 0xFFFF {
		return dst, fmt.Errorf("%w: %s %d bytes long", ErrMalformed, what, len(s))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

// --- get / del ------------------------------------------------------

func encodeKey(key tier.Key) []byte {
	b := make([]byte, 0, 16)
	b = binary.BigEndian.AppendUint64(b, key.Hi)
	return binary.BigEndian.AppendUint64(b, key.Lo)
}

func decodeKey(payload []byte) (tier.Key, error) {
	c := cursor{b: payload}
	k := tier.Key{Hi: c.u64("key hi"), Lo: c.u64("key lo")}
	return k, c.done()
}

// --- put ------------------------------------------------------------

func encodePut(bootID uint64, key tier.Key, e tier.Entry) ([]byte, error) {
	b := make([]byte, 0, 24+8+1+len(e.Rep)+2+len(e.Stamps)*16+len(e.Value))
	b = binary.BigEndian.AppendUint64(b, bootID)
	b = binary.BigEndian.AppendUint64(b, key.Hi)
	b = binary.BigEndian.AppendUint64(b, key.Lo)
	b = binary.BigEndian.AppendUint64(b, uint64(e.TTL.Nanoseconds()))
	var err error
	if b, err = appendStr8(b, e.Rep, "rep name"); err != nil {
		return nil, err
	}
	if len(e.Stamps) > 0xFFFF {
		return nil, fmt.Errorf("%w: %d stamps", ErrMalformed, len(e.Stamps))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(e.Stamps)))
	for _, st := range e.Stamps {
		if b, err = appendStr16(b, st.Keyspace, "keyspace"); err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint64(b, st.Epoch)
	}
	return append(b, e.Value...), nil
}

func decodePut(payload []byte) (uint64, tier.Key, tier.Entry, error) {
	c := cursor{b: payload}
	bootID := c.u64("boot id")
	k := tier.Key{Hi: c.u64("key hi"), Lo: c.u64("key lo")}
	e := tier.Entry{TTL: time.Duration(c.u64("ttl"))}
	e.Rep = c.str(int(c.u8("rep length")), "rep name")
	n := int(c.u16("stamp count"))
	if c.err == nil && n > 0 {
		e.Stamps = make([]tier.Stamp, 0, n)
		for i := 0; i < n && c.err == nil; i++ {
			ks := c.str(int(c.u16("keyspace length")), "keyspace")
			e.Stamps = append(e.Stamps, tier.Stamp{Keyspace: ks, Epoch: c.u64("epoch")})
		}
	}
	e.Value = c.rest()
	if c.err != nil {
		return 0, tier.Key{}, tier.Entry{}, c.err
	}
	return bootID, k, e, nil
}

// --- value response -------------------------------------------------

func encodeValue(m respMeta, e tier.Entry) ([]byte, error) {
	b := make([]byte, 0, 16+8+1+len(e.Rep)+len(e.Value))
	b = appendMeta(b, m)
	b = binary.BigEndian.AppendUint64(b, uint64(e.TTL.Nanoseconds()))
	var err error
	if b, err = appendStr8(b, e.Rep, "rep name"); err != nil {
		return nil, err
	}
	return append(b, e.Value...), nil
}

func decodeValue(payload []byte) (respMeta, tier.Entry, error) {
	c := cursor{b: payload}
	m := c.meta()
	e := tier.Entry{TTL: time.Duration(c.u64("ttl"))}
	e.Rep = c.str(int(c.u8("rep length")), "rep name")
	e.Value = c.rest()
	if c.err != nil {
		return respMeta{}, tier.Entry{}, c.err
	}
	return m, e, nil
}

// --- meta-only payloads (miss/ok responses, sync request) -----------

func encodeMetaOnly(m respMeta) []byte {
	return appendMeta(make([]byte, 0, 16), m)
}

func decodeMetaOnly(payload []byte) (respMeta, error) {
	c := cursor{b: payload}
	m := c.meta()
	return m, c.done()
}

// --- bump request ---------------------------------------------------

func encodeBump(cur respMeta, keyspaces []string) ([]byte, error) {
	if len(keyspaces) > 0xFFFF {
		return nil, fmt.Errorf("%w: %d keyspaces", ErrMalformed, len(keyspaces))
	}
	b := appendMeta(nil, cur)
	b = binary.BigEndian.AppendUint16(b, uint16(len(keyspaces)))
	var err error
	for _, ks := range keyspaces {
		if b, err = appendStr16(b, ks, "keyspace"); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func decodeBump(payload []byte) (respMeta, []string, error) {
	c := cursor{b: payload}
	cur := c.meta()
	n := int(c.u16("keyspace count"))
	var out []string
	for i := 0; i < n && c.err == nil; i++ {
		out = append(out, c.str(int(c.u16("keyspace length")), "keyspace"))
	}
	if err := c.done(); err != nil {
		return respMeta{}, nil, err
	}
	return cur, out, nil
}

// --- epoch table response -------------------------------------------

func encodeTable(m respMeta, epochs map[string]uint64) ([]byte, error) {
	b := appendMeta(make([]byte, 0, 16+4+len(epochs)*16), m)
	b = binary.BigEndian.AppendUint32(b, uint32(len(epochs)))
	var err error
	for ks, epoch := range epochs {
		if b, err = appendStr16(b, ks, "keyspace"); err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint64(b, epoch)
	}
	return b, nil
}

func decodeTable(payload []byte) (respMeta, map[string]uint64, error) {
	c := cursor{b: payload}
	m := c.meta()
	n := int(c.u32("entry count"))
	// Each entry is at least 10 bytes; an entry count inconsistent with
	// the payload size is refused before allocating the map for it.
	if c.err == nil && n*10 > len(c.b) {
		return respMeta{}, nil, fmt.Errorf("%w: table declares %d entries in %d bytes", ErrMalformed, n, len(c.b))
	}
	epochs := make(map[string]uint64, n)
	for i := 0; i < n && c.err == nil; i++ {
		ks := c.str(int(c.u16("keyspace length")), "keyspace")
		epochs[ks] = c.u64("epoch")
	}
	if err := c.done(); err != nil {
		return respMeta{}, nil, err
	}
	return m, epochs, nil
}

// --- error response -------------------------------------------------

func encodeErr(msg string) []byte {
	if len(msg) > 0xFFFF {
		msg = msg[:0xFFFF]
	}
	b := binary.BigEndian.AppendUint16(nil, uint16(len(msg)))
	return append(b, msg...)
}

func decodeErr(payload []byte) (string, error) {
	c := cursor{b: payload}
	msg := c.str(int(c.u16("message length")), "message")
	return msg, c.done()
}
