package wire

import (
	"errors"
	"math/rand"
	"testing"

	"silentspan/internal/bits"
	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

// sampleStates returns representative register contents per codec,
// including sentinel-heavy and adversarial field values.
func sampleStates(c Codec, rng *rand.Rand) []runtime.State {
	switch c.(type) {
	case Spanning:
		out := []runtime.State{
			spanning.State{Root: 1, Parent: trees.None, Dist: 0},
			spanning.State{Root: 3, Parent: 7, Dist: 5},
			spanning.State{Root: 1 << 40, Parent: 9999, Dist: 1 << 30},
		}
		for i := 0; i < 40; i++ {
			out = append(out, spanning.State{
				Root:   graph.NodeID(rng.Int63n(1 << 20)),
				Parent: graph.NodeID(rng.Int63n(1<<20) - 1),
				Dist:   rng.Intn(1 << 16),
			})
		}
		return out
	default:
		out := []runtime.State{
			switching.SelfRoot(4),
			switching.State{Root: 2, Parent: 5, HasD: true, D: 3, HasS: false, S: 99,
				Sw: switching.SwReq, SwTarget: 6, Pr: switching.PrPruned, Sub: switching.SubAck},
		}
		for i := 0; i < 40; i++ {
			out = append(out, switching.State{
				Root:   graph.NodeID(rng.Int63n(1 << 20)),
				Parent: graph.NodeID(rng.Int63n(1<<20) - 1),
				HasD:   rng.Intn(2) == 0, D: rng.Intn(1 << 12),
				HasS: rng.Intn(2) == 0, S: rng.Intn(1 << 12),
				Sw:       switching.SwPhase(rng.Intn(6)),
				SwTarget: graph.NodeID(rng.Intn(64)),
				Pr:       switching.PrPhase(rng.Intn(6)),
				Sub:      switching.SubPhase(rng.Intn(6)),
			})
		}
		return out
	}
}

// TestHeartbeatRoundtrip: every register sample survives encode→decode
// of a self-contained heartbeat exactly, under both codecs, empty
// registers included.
func TestHeartbeatRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var b bits.Builder
	for _, c := range []Codec{Spanning{}, Switching{}} {
		states := append(sampleStates(c, rng), nil)
		for i, s := range states {
			in := Frame{Kind: KindDelta, Alg: c.Code(), Src: 42, Seq: uint64(i), BaseSeq: uint64(i), State: s}
			data, err := Encode(in, c, &b, nil)
			if err != nil {
				t.Fatalf("%s state %d: encode: %v", c.Name(), i, err)
			}
			out, err := Decode(c, data)
			if err != nil {
				t.Fatalf("%s state %d: decode: %v", c.Name(), i, err)
			}
			if out.Kind != in.Kind || out.Alg != in.Alg || out.Src != in.Src || out.Seq != in.Seq || out.BaseSeq != in.BaseSeq {
				t.Fatalf("%s state %d: header mismatch: %+v vs %+v", c.Name(), i, out, in)
			}
			switch {
			case s == nil:
				if out.State != nil {
					t.Fatalf("%s state %d: empty register decoded as %v", c.Name(), i, out.State)
				}
			case !out.State.Equal(s):
				t.Fatalf("%s state %d: %v != %v", c.Name(), i, out.State, s)
			}
		}
	}
}

// TestDataRoundtrip: packet frames survive encode→decode.
func TestDataRoundtrip(t *testing.T) {
	var b bits.Builder
	c := Codec(Spanning{})
	in := Frame{Kind: KindData, Src: 9, Seq: 77,
		Data: Packet{ID: 123456, Origin: 3, Dst: 8, Hops: 17}}
	data, err := Encode(in, c, &b, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(c, data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data != in.Data || out.Src != in.Src || out.Seq != in.Seq || out.Kind != KindData {
		t.Fatalf("got %+v want %+v", out, in)
	}
}

// TestEveryByteFlipRejected: the checksum must catch any single-byte
// corruption anywhere in a data frame — the contract the
// fault-injecting transport's byte corrupter relies on. (The heartbeat
// and membership kinds have their own tables.)
func TestEveryByteFlipRejected(t *testing.T) {
	var b bits.Builder
	c := Codec(Switching{})
	frames := []Frame{
		{Kind: KindData, Src: 5, Data: Packet{ID: 1, Origin: 5, Dst: 2}},
		{Kind: KindData, Src: 50000, Seq: 3, Data: Packet{ID: 1 << 40, Origin: 17, Dst: 9001, Hops: 255}},
	}
	for fi, fr := range frames {
		data, err := Encode(fr, c, &b, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				mut := append([]byte(nil), data...)
				mut[i] ^= flip
				if _, err := Decode(c, mut); err == nil {
					t.Fatalf("frame %d: byte %d flipped by %#x accepted", fi, i, flip)
				}
			}
		}
	}
}

// TestDecodeRejects: each malformed-frame class maps to its sentinel.
func TestDecodeRejects(t *testing.T) {
	var b bits.Builder
	c := Codec(Spanning{})
	good, err := Encode(Frame{Kind: KindData, Src: 1, Seq: 1,
		Data: Packet{ID: 7, Origin: 1, Dst: 4, Hops: 2}}, c, &b, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short", good[:headerLen+trailerLen-1], ErrTruncated},
		{"magic", mutate(good, 0, 'X'), ErrMagic},
		// The retired fixed-header format: "ST", version, kind, ….
		{"retired-envelope", []byte("ST\x01\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x02"), ErrMagic},
		{"version", mutate(good, 1, 9<<4|byte(KindData)), ErrVersion},
		{"kind-zero", mutate(good, 1, Version<<4), ErrKind},
		// Kind 1 was the retired full-state heartbeat; it stays rejected.
		{"kind-retired", mutate(good, 1, Version<<4|1), ErrKind},
		{"crc", mutate(good, len(good)-1, good[len(good)-1]^1), ErrChecksum},
		{"truncated-payload", good[:len(good)-1], ErrChecksum},
		{"padding-byte", compactMutate(good, func(b []byte) []byte { return append(b, 0) }), ErrPayload},
		{"missing-field", compactMutate(good, func(b []byte) []byte { return b[:len(b)-1] }), ErrPayload},
	}
	for _, tc := range cases {
		if _, err := Decode(c, tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// A foreign state type must be refused at encode time, and so must a
	// frame from a non-positive node or with a seq the prefix cannot code.
	if _, err := Encode(Frame{Kind: KindDelta, Src: 1, State: switching.SelfRoot(1)}, Spanning{}, &b, nil); err == nil {
		t.Error("spanning codec encoded a switching register")
	}
	if _, err := Encode(Frame{Kind: KindData, Src: 0, Data: Packet{ID: 7, Origin: 1, Dst: 4}}, c, &b, nil); err == nil {
		t.Error("src 0 encoded")
	}
	if _, err := Encode(Frame{Kind: KindData, Src: 1, Seq: ^uint64(0)}, c, &b, nil); err == nil {
		t.Error("seq 2^64-1 encoded (seq+1 has no gamma code)")
	}
}

func mutate(data []byte, i int, v byte) []byte {
	out := append([]byte(nil), data...)
	out[i] = v
	return out
}

// TestForAlgorithm: the five certified algorithms all resolve to a
// codec; the codec registry round-trips by code.
func TestForAlgorithm(t *testing.T) {
	for code := uint8(1); code <= 2; code++ {
		c, ok := ByCode(code)
		if !ok || c.Code() != code {
			t.Fatalf("ByCode(%d) = %v, %v", code, c, ok)
		}
	}
	if _, ok := ByCode(9); ok {
		t.Fatal("ByCode(9) resolved")
	}
	if c, err := ForAlgorithm(spanning.Algorithm{}); err != nil || c.Code() != codeSpanning {
		t.Fatalf("spanning: %v %v", c, err)
	}
	if c, err := ForAlgorithm(switching.Algorithm{}); err != nil || c.Code() != codeSwitching {
		t.Fatalf("switching: %v %v", c, err)
	}
}

// TestFrameOverhead: the envelope must stay a small constant over the
// gamma-coded register — the space story of the transform.
func TestFrameOverhead(t *testing.T) {
	var b bits.Builder
	c := Codec(Spanning{})
	s := spanning.State{Root: 1, Parent: 2, Dist: 1}
	data, err := Encode(Frame{Kind: KindDelta, Alg: c.Code(), Src: 2, Seq: 1, BaseSeq: 1, State: s}, c, &b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > headerLen+trailerLen+4 {
		t.Fatalf("tiny register frame is %d bytes", len(data))
	}
}
