package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"silentspan/internal/bits"
	"silentspan/internal/graph"
)

func appendCRC(body []byte) []byte {
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestAdvertRoundtrip: every advert shape — with/without admin addr,
// with/without digest — survives encode→decode exactly and re-encodes
// canonically.
func TestAdvertRoundtrip(t *testing.T) {
	c := Codec(Switching{})
	cases := []Frame{
		{Kind: KindAdvert, Alg: c.Code(), Src: 1, Seq: 0},
		{Kind: KindAdvert, Alg: c.Code(), Src: 7, Seq: 41, AdminAddr: "127.0.0.1:8080"},
		{Kind: KindAdvert, Alg: c.Code(), Src: 3, Seq: 9, Neighbors: []graph.NodeID{1, 2, 9}},
		{Kind: KindAdvert, Alg: c.Code(), Src: 500, Seq: 1 << 40,
			AdminAddr: "[::1]:65535", Neighbors: []graph.NodeID{4, 99, 100, 1 << 30}},
	}
	var b bits.Builder
	for _, in := range cases {
		data, err := Encode(in, c, &b, nil)
		if err != nil {
			t.Fatalf("encode %+v: %v", in, err)
		}
		out, err := Decode(c, data)
		if err != nil {
			t.Fatalf("decode %+v: %v", in, err)
		}
		if out.Kind != KindAdvert || out.Src != in.Src || out.Seq != in.Seq ||
			out.Alg != in.Alg || out.AdminAddr != in.AdminAddr {
			t.Fatalf("header mismatch: got %+v want %+v", out, in)
		}
		if len(out.Neighbors) != len(in.Neighbors) {
			t.Fatalf("digest length: got %v want %v", out.Neighbors, in.Neighbors)
		}
		for i := range in.Neighbors {
			if out.Neighbors[i] != in.Neighbors[i] {
				t.Fatalf("digest: got %v want %v", out.Neighbors, in.Neighbors)
			}
		}
		data2, err := Encode(out, c, &b, nil)
		if err != nil || !bytes.Equal(data, data2) {
			t.Fatalf("re-encode not canonical: %x vs %x (%v)", data, data2, err)
		}
	}
}

// TestLeaveRoundtrip: a goodbye is pure identity and still roundtrips
// under both codecs.
func TestLeaveRoundtrip(t *testing.T) {
	for _, c := range []Codec{Spanning{}, Switching{}} {
		in := Frame{Kind: KindLeave, Alg: c.Code(), Src: 12, Seq: 77}
		var b bits.Builder
		data, err := Encode(in, c, &b, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Decode(c, data)
		if err != nil {
			t.Fatal(err)
		}
		if out.Kind != KindLeave || out.Src != 12 || out.Seq != 77 || out.Alg != c.Code() {
			t.Fatalf("got %+v", out)
		}
		data2, err := Encode(out, c, &b, nil)
		if err != nil || !bytes.Equal(data, data2) {
			t.Fatalf("re-encode not canonical: %x vs %x (%v)", data, data2, err)
		}
	}
}

// TestMembershipEncodeRejects: malformed adverts are refused at the
// encoder, not silently mangled on the wire.
func TestMembershipEncodeRejects(t *testing.T) {
	c := Codec(Switching{})
	var b bits.Builder
	long := make([]byte, maxAdvertAddr+1)
	cases := []Frame{
		{Kind: KindAdvert, Alg: c.Code(), Src: 0},                                         // non-positive src
		{Kind: KindAdvert, Alg: c.Code(), Src: 1, AdminAddr: string(long)},                // addr over cap
		{Kind: KindAdvert, Alg: c.Code(), Src: 1, Neighbors: []graph.NodeID{3, 3}},        // not ascending
		{Kind: KindAdvert, Alg: c.Code(), Src: 1, Neighbors: []graph.NodeID{5, 2}},        // descending
		{Kind: KindAdvert, Alg: c.Code(), Src: 1, Neighbors: make([]graph.NodeID, 1<<13)}, // digest over cap
	}
	for i, f := range cases {
		if _, err := Encode(f, c, &b, nil); err == nil {
			t.Fatalf("case %d: encode accepted %+v", i, f)
		}
	}
}

// TestEveryByteFlipRejectedMembership: the CRC envelope covers the new
// kinds — any single flipped byte is rejected or decodes to a frame
// that is not byte-identical on re-encode (never silently accepted as
// the original).
func TestEveryByteFlipRejectedMembership(t *testing.T) {
	c := Codec(Switching{})
	var b bits.Builder
	frames := []Frame{
		{Kind: KindAdvert, Alg: c.Code(), Src: 9, Seq: 13,
			AdminAddr: "127.0.0.1:9000", Neighbors: []graph.NodeID{1, 4, 8}},
		{Kind: KindLeave, Alg: c.Code(), Src: 9, Seq: 13},
	}
	for _, f := range frames {
		data, err := Encode(f, c, &b, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), data...)
				mut[i] ^= 1 << uint(bit)
				if _, err := Decode(c, mut); err == nil {
					t.Fatalf("byte %d bit %d: corrupted frame accepted", i, bit)
				}
			}
		}
	}
}

// TestMembershipDecodeRejects: adversarial payloads under a valid CRC
// (lengths over cap, truncated fields) come back as ErrPayload, and a
// reserved compact kind as ErrKind.
func TestMembershipDecodeRejects(t *testing.T) {
	c := Codec(Switching{})

	// Hand-build a compact frame with an advert header whose digest
	// count claims more entries than the cap, CRC valid.
	build := func(fill func(b *bits.Builder)) []byte {
		var b bits.Builder
		b.Reset()
		fill(&b)
		data := []byte{magic, byte(Version<<4) | byte(KindAdvert), c.Code()}
		data = b.AppendBytes(data)
		return appendCRC(data)
	}
	overDigest := build(func(b *bits.Builder) {
		b.AppendGamma(1)         // src
		b.AppendGamma(1)         // seq+1
		b.AppendGamma(1)         // addr len 0
		b.AppendGamma(1<<13 + 1) // digest count over cap
	})
	if _, err := Decode(c, overDigest); !errors.Is(err, ErrPayload) {
		t.Fatalf("over-cap digest: %v", err)
	}
	overAddr := build(func(b *bits.Builder) {
		b.AppendGamma(1)
		b.AppendGamma(1)
		b.AppendGamma(maxAdvertAddr + 2) // addr len over cap
	})
	if _, err := Decode(c, overAddr); !errors.Is(err, ErrPayload) {
		t.Fatalf("over-cap addr: %v", err)
	}
	truncAddr := build(func(b *bits.Builder) {
		b.AppendGamma(1)
		b.AppendGamma(1)
		b.AppendGamma(3) // addr len 2, but no addr bytes follow
	})
	if _, err := Decode(c, truncAddr); !errors.Is(err, ErrPayload) {
		t.Fatalf("truncated addr: %v", err)
	}
	// Reserved compact kind 7 with a valid CRC must be ErrKind.
	bad := []byte{magic, byte(Version<<4) | 7, c.Code(), 0x80}
	bad = appendCRC(bad)
	if _, err := Decode(c, bad); !errors.Is(err, ErrKind) {
		t.Fatalf("reserved kind: %v", err)
	}
}

// FuzzMembershipCodec drives advert and leave frames through
// encode→decode with fuzzer-chosen identities, addresses, and digest
// shapes: exact recovery, canonical re-encode, and encoder rejection
// of anything out of contract.
func FuzzMembershipCodec(f *testing.F) {
	f.Add(int64(1), uint64(0), "", uint64(0), uint64(0), false)
	f.Add(int64(9), uint64(13), "127.0.0.1:9000", uint64(3), uint64(7), false)
	f.Add(int64(500), uint64(1)<<40, "[::1]:65535", uint64(1), uint64(1)<<20, true)
	f.Add(int64(-3), uint64(2), "x", uint64(2), uint64(0), false)
	f.Fuzz(func(t *testing.T, src int64, seq uint64, addr string, digestLen, digestStep uint64, leave bool) {
		c := Codec(Switching{})
		var b bits.Builder
		in := Frame{Kind: KindAdvert, Alg: c.Code(), Src: graph.NodeID(src), Seq: seq, AdminAddr: addr}
		if leave {
			in = Frame{Kind: KindLeave, Alg: c.Code(), Src: graph.NodeID(src), Seq: seq}
		}
		if digestLen > 0 && !leave {
			n := digestLen % 64
			step := digestStep%(1<<20) + 1
			id := graph.NodeID(0)
			for i := uint64(0); i < n; i++ {
				id += graph.NodeID(step)
				in.Neighbors = append(in.Neighbors, id)
			}
		}
		data, err := Encode(in, c, &b, nil)
		if err != nil {
			if in.Src >= 1 && len(in.AdminAddr) <= maxAdvertAddr {
				t.Fatalf("encoder rejected a lawful frame %+v: %v", in, err)
			}
			return
		}
		out, err := Decode(c, data)
		if err != nil {
			t.Fatalf("decode of freshly encoded frame failed: %v", err)
		}
		if out.Kind != in.Kind || out.Src != in.Src || out.Seq != in.Seq || out.AdminAddr != in.AdminAddr {
			t.Fatalf("mismatch: got %+v want %+v", out, in)
		}
		if len(out.Neighbors) != len(in.Neighbors) {
			t.Fatalf("digest: got %v want %v", out.Neighbors, in.Neighbors)
		}
		for i := range in.Neighbors {
			if out.Neighbors[i] != in.Neighbors[i] {
				t.Fatalf("digest: got %v want %v", out.Neighbors, in.Neighbors)
			}
		}
		re, err := Encode(out, c, &b, nil)
		if err != nil || !bytes.Equal(re, data) {
			t.Fatalf("re-encode not canonical: %x vs %x (%v)", data, re, err)
		}
	})
}
