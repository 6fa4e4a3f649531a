package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/tier"
)

// typedDecodeErr reports whether err is one of the package's sentinel
// decode errors — the contract every malformed input must satisfy.
func typedDecodeErr(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, ErrFrameTooLarge) ||
		errors.Is(err, ErrVersionSkew) || errors.Is(err, ErrUnknownOpcode) ||
		errors.Is(err, ErrMalformed)
}

// TestDecodeFrameMalformed is the malformed-frame table: each corrupt
// input must yield its specific typed error, never a panic.
func TestDecodeFrameMalformed(t *testing.T) {
	valid := AppendFrame(nil, OpGet, encodeKey(tier.Key{Hi: 1, Lo: 2}))
	cases := []struct {
		name string
		in   []byte
		max  int
		want error
	}{
		{"empty", nil, 0, ErrTruncated},
		{"truncated header", valid[:5], 0, ErrTruncated},
		{"header only, payload declared", valid[:headerSize], 0, ErrTruncated},
		{"truncated payload", valid[:len(valid)-1], 0, ErrTruncated},
		{"version zero", append([]byte{0}, valid[1:]...), 0, ErrVersionSkew},
		{"version future", append([]byte{ProtocolVersion + 1}, valid[1:]...), 0, ErrVersionSkew},
		// A version-1 peer sends SYNC without a cursor; it must be refused,
		// not read as a cursor-less sync.
		{"version one sync", []byte{1, byte(OpSync), 0, 0, 0, 0, 0, 0}, 0, ErrVersionSkew},
		{"unknown opcode", append([]byte{ProtocolVersion, 0x7E}, valid[2:]...), 0, ErrUnknownOpcode},
		{"oversized length", AppendFrame(nil, OpGet, make([]byte, 100)), 64, ErrFrameTooLarge},
		{
			"length overflowing input",
			func() []byte {
				b := append([]byte(nil), valid...)
				binary.BigEndian.PutUint32(b[4:8], 1<<20)
				return b
			}(),
			0,
			ErrTruncated,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := DecodeFrame(tc.in, tc.max)
			if !errors.Is(err, tc.want) {
				t.Fatalf("DecodeFrame error = %v, want %v", err, tc.want)
			}
			// The stream reader must agree with the in-memory decoder,
			// except that zero bytes is a clean peer close there (io.EOF),
			// not a truncation.
			_, _, rerr := readFrame(bytes.NewReader(tc.in), tc.max)
			if !typedDecodeErr(rerr) && !(len(tc.in) == 0 && errors.Is(rerr, io.EOF)) {
				t.Fatalf("readFrame error = %v, want a typed decode error", rerr)
			}
		})
	}
}

// TestReadFrameAgreesWithDecodeFrame: a valid frame round-trips through
// both decoders identically.
func TestReadFrameAgreesWithDecodeFrame(t *testing.T) {
	payload := []byte("hello frame")
	frame := AppendFrame(nil, OpPut, payload)

	op, p, rest, err := DecodeFrame(frame, 0)
	if err != nil || op != OpPut || !bytes.Equal(p, payload) || len(rest) != 0 {
		t.Fatalf("DecodeFrame = %v %q rest=%d err=%v", op, p, len(rest), err)
	}
	op, p, err = readFrame(bytes.NewReader(frame), 0)
	if err != nil || op != OpPut || !bytes.Equal(p, payload) {
		t.Fatalf("readFrame = %v %q err=%v", op, p, err)
	}
}

// FuzzFrameRoundTrip drives both directions: arbitrary bytes through
// the decoders must never panic and must fail with a typed error, and
// any payload framed by AppendFrame must decode back intact. The
// message-level decoders ride along on the same corpus — they are what
// a hostile payload reaches next.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, OpGet, encodeKey(tier.Key{Hi: 7, Lo: 9})))
	f.Add(AppendFrame(nil, OpPing, nil))
	f.Add([]byte{ProtocolVersion, byte(OpErr), 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	if p, err := encodePut(3, tier.Key{Hi: 1, Lo: 2}, tier.Entry{
		Rep: "binser", Value: []byte("v"), TTL: time.Second,
		Stamps: []tier.Stamp{{Keyspace: "items", Epoch: 4}},
	}); err == nil {
		f.Add(AppendFrame(nil, OpPut, p))
	}
	if p, err := encodeTable(respMeta{bootID: 1, version: 2}, map[string]uint64{"items": 3}); err == nil {
		f.Add(AppendFrame(nil, OpTable, p))
	}
	f.Add(AppendFrame(nil, OpSync, encodeMetaOnly(respMeta{bootID: 5, version: 11})))
	if p, err := encodeBump(respMeta{bootID: 5, version: 11}, []string{"items", "item:k"}); err == nil {
		f.Add(AppendFrame(nil, OpBump, p))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: hostile bytes. No panics; errors are typed.
		op, payload, rest, err := DecodeFrame(data, 1<<16)
		if err != nil {
			if !typedDecodeErr(err) {
				t.Fatalf("DecodeFrame: untyped error %v", err)
			}
		} else {
			if len(payload)+len(rest)+headerSize != len(data) {
				t.Fatalf("DecodeFrame: consumed %d+%d of %d", len(payload), len(rest), len(data))
			}
			if !op.valid() {
				t.Fatalf("DecodeFrame accepted opcode %#x", byte(op))
			}
		}
		if _, _, err := readFrame(bytes.NewReader(data), 1<<16); err != nil &&
			!typedDecodeErr(err) && !errors.Is(err, io.EOF) {
			// io.EOF = clean close before any header byte; everything else
			// must be a typed decode error.
			t.Fatalf("readFrame: untyped error %v", err)
		}

		// The message decoders must be equally total.
		if _, _, _, err := decodePut(data); err != nil && !errors.Is(err, ErrMalformed) {
			t.Fatalf("decodePut: untyped error %v", err)
		}
		if _, err := decodeKey(data); err != nil && !errors.Is(err, ErrMalformed) {
			t.Fatalf("decodeKey: untyped error %v", err)
		}
		if _, _, err := decodeValue(data); err != nil && !errors.Is(err, ErrMalformed) {
			t.Fatalf("decodeValue: untyped error %v", err)
		}
		if _, _, err := decodeTable(data); err != nil && !errors.Is(err, ErrMalformed) {
			t.Fatalf("decodeTable: untyped error %v", err)
		}
		if _, _, err := decodeBump(data); err != nil && !errors.Is(err, ErrMalformed) {
			t.Fatalf("decodeBump: untyped error %v", err)
		}
		if _, err := decodeMetaOnly(data); err != nil && !errors.Is(err, ErrMalformed) {
			t.Fatalf("decodeSync: untyped error %v", err)
		}

		// Direction 2: anything we frame comes back intact.
		frame := AppendFrame(nil, OpPut, data)
		op2, p2, rest2, err := DecodeFrame(frame, len(data)+1)
		if err != nil || op2 != OpPut || !bytes.Equal(p2, data) || len(rest2) != 0 {
			t.Fatalf("round trip: op=%v err=%v", op2, err)
		}
	})
}

// TestMessageRoundTrips covers each payload codec.
func TestMessageRoundTrips(t *testing.T) {
	key := tier.Key{Hi: 0xDEADBEEF, Lo: 0xFEEDFACE}

	t.Run("key", func(t *testing.T) {
		got, err := decodeKey(encodeKey(key))
		if err != nil || got != key {
			t.Fatalf("got %+v err=%v", got, err)
		}
	})

	t.Run("put", func(t *testing.T) {
		e := tier.Entry{
			Rep:   "compact-sax",
			Value: []byte("payload bytes"),
			TTL:   90 * time.Second,
			Stamps: []tier.Stamp{
				{Keyspace: "items", Epoch: 12},
				{Keyspace: "users/7", Epoch: 0},
			},
		}
		p, err := encodePut(42, key, e)
		if err != nil {
			t.Fatal(err)
		}
		bootID, k, got, err := decodePut(p)
		if err != nil {
			t.Fatal(err)
		}
		if bootID != 42 || k != key || !reflect.DeepEqual(got, e) {
			t.Fatalf("got boot=%d key=%+v entry=%+v", bootID, k, got)
		}
	})

	t.Run("put empty", func(t *testing.T) {
		p, err := encodePut(1, key, tier.Entry{Rep: "xml"})
		if err != nil {
			t.Fatal(err)
		}
		_, _, got, err := decodePut(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rep != "xml" || len(got.Stamps) != 0 || len(got.Value) != 0 {
			t.Fatalf("got %+v", got)
		}
	})

	t.Run("value", func(t *testing.T) {
		m := respMeta{bootID: 5, version: 77}
		e := tier.Entry{Rep: "binser", Value: []byte{1, 2, 3}, TTL: time.Minute}
		p, err := encodeValue(m, e)
		if err != nil {
			t.Fatal(err)
		}
		gm, ge, err := decodeValue(p)
		if err != nil || gm != m {
			t.Fatalf("meta %+v err=%v", gm, err)
		}
		if ge.Rep != e.Rep || !bytes.Equal(ge.Value, e.Value) || ge.TTL != e.TTL {
			t.Fatalf("entry %+v", ge)
		}
	})

	t.Run("meta only", func(t *testing.T) {
		m := respMeta{bootID: 9, version: 3}
		got, err := decodeMetaOnly(encodeMetaOnly(m))
		if err != nil || got != m {
			t.Fatalf("got %+v err=%v", got, err)
		}
		if _, err := decodeMetaOnly(append(encodeMetaOnly(m), 0)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("trailing byte accepted: %v", err)
		}
		// A version-1 sync request had an empty payload; as a cursor it
		// is malformed.
		if _, err := decodeMetaOnly(nil); !errors.Is(err, ErrMalformed) {
			t.Fatalf("empty cursor accepted: %v", err)
		}
	})

	t.Run("bump", func(t *testing.T) {
		cur := respMeta{bootID: 3, version: 17}
		want := []string{"items", "users/1", ""}
		p, err := encodeBump(cur, want)
		if err != nil {
			t.Fatal(err)
		}
		gotCur, got, err := decodeBump(p)
		if err != nil || gotCur != cur || !reflect.DeepEqual(got, want) {
			t.Fatalf("cursor %+v keyspaces %v err=%v", gotCur, got, err)
		}
	})

	t.Run("table", func(t *testing.T) {
		m := respMeta{bootID: 8, version: 21}
		want := map[string]uint64{"items": 4, "users/2": 9, "orders": 0}
		p, err := encodeTable(m, want)
		if err != nil {
			t.Fatal(err)
		}
		gm, got, err := decodeTable(p)
		if err != nil || gm != m || !reflect.DeepEqual(got, want) {
			t.Fatalf("meta=%+v table=%v err=%v", gm, got, err)
		}
	})

	t.Run("table refuses absurd count", func(t *testing.T) {
		p := appendMeta(nil, respMeta{})
		p = binary.BigEndian.AppendUint32(p, 1<<30)
		if _, _, err := decodeTable(p); !errors.Is(err, ErrMalformed) {
			t.Fatalf("absurd count: %v", err)
		}
	})

	t.Run("err", func(t *testing.T) {
		msg, err := decodeErr(encodeErr("boom"))
		if err != nil || msg != "boom" {
			t.Fatalf("got %q err=%v", msg, err)
		}
		long := strings.Repeat("x", 0x12345)
		msg, err = decodeErr(encodeErr(long))
		if err != nil || len(msg) != 0xFFFF {
			t.Fatalf("long message: len=%d err=%v", len(msg), err)
		}
	})

	t.Run("oversized strings refused at encode", func(t *testing.T) {
		if _, err := encodePut(1, key, tier.Entry{Rep: strings.Repeat("r", 300)}); !errors.Is(err, ErrMalformed) {
			t.Fatalf("300-byte rep name: %v", err)
		}
		if _, err := encodeBump(respMeta{}, []string{strings.Repeat("k", 1<<17)}); !errors.Is(err, ErrMalformed) {
			t.Fatalf("128KiB keyspace: %v", err)
		}
	})
}
