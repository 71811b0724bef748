package wire

import (
	"bytes"
	"testing"

	"silentspan/internal/bits"
	"silentspan/internal/graph"
	"silentspan/internal/switching"
)

// FuzzFrameRoundtrip drives the switching codec — the superset register
// carried by four of the five algorithms — through encode→decode of a
// self-contained heartbeat with fuzzer-chosen field values, asserting
// exact state recovery and that re-encoding is canonical
// (byte-identical).
func FuzzFrameRoundtrip(f *testing.F) {
	f.Add(int64(1), int64(0), true, int64(0), true, int64(1), uint8(1), int64(0), uint8(1), uint8(1), uint64(1))
	f.Add(int64(2), int64(5), true, int64(3), false, int64(99), uint8(2), int64(6), uint8(3), uint8(3), uint64(7))
	f.Add(int64(-9), int64(1)<<40, false, int64(-1), true, int64(1)<<50, uint8(255), int64(-1)<<30, uint8(0), uint8(9), uint64(1)<<60)
	f.Fuzz(func(t *testing.T, root, parent int64, hasD bool, d int64, hasS bool, s int64,
		sw uint8, target int64, pr, sub uint8, seq uint64) {
		c := Codec(Switching{})
		st := switching.State{
			Root: graph.NodeID(root), Parent: graph.NodeID(parent),
			HasD: hasD, D: int(d), HasS: hasS, S: int(s),
			Sw: switching.SwPhase(sw), SwTarget: graph.NodeID(target),
			Pr: switching.PrPhase(pr), Sub: switching.SubPhase(sub),
		}
		var b bits.Builder
		// Frame sources are positive; fold the fuzzed root into one.
		src := graph.NodeID(uint64(root)>>1 | 1)
		in := Frame{Kind: KindDelta, Alg: c.Code(), Src: src, Seq: seq, BaseSeq: seq, State: st}
		data, err := Encode(in, c, &b, nil)
		if err != nil {
			if seq == ^uint64(0) {
				return // seq+1 is not gamma-codable; the encoder must refuse, not panic
			}
			t.Fatalf("encode: %v", err)
		}
		out, err := Decode(c, data)
		if err != nil {
			t.Fatalf("decode(%x): %v", data, err)
		}
		if out.Seq != seq || out.BaseSeq != seq || out.Src != in.Src {
			t.Fatalf("header mismatch: %+v", out)
		}
		got, ok := out.State.(switching.State)
		if !ok {
			t.Fatalf("decoded %T", out.State)
		}
		if got != st {
			t.Fatalf("state %v != %v", got, st)
		}
		data2, err := Encode(out, c, &b, nil)
		if err != nil || !bytes.Equal(data, data2) {
			t.Fatalf("re-encode not canonical: %x vs %x (%v)", data, data2, err)
		}
	})
}

// FuzzDecodeFrame throws arbitrary bytes at the decoder under both
// codecs: it must never panic, never allocate past the input size, and
// anything it accepts must re-encode to the identical bytes.
func FuzzDecodeFrame(f *testing.F) {
	var b bits.Builder
	seedFrames := []Frame{
		{Kind: KindData, Src: 2, Data: Packet{ID: 1, Origin: 2, Dst: 3}},
		{Kind: KindData, Src: 50000, Seq: 1 << 40, Data: Packet{ID: 1 << 50, Origin: 17, Dst: 9001, Hops: 255}},
		{Kind: KindData, Src: 2, Seq: 5, Data: Packet{ID: 7, Origin: 2, Dst: 6, Hops: 3}},
		{Kind: KindDelta, Alg: codeSwitching, Src: 3, Seq: 9, BaseSeq: 9, State: switching.SelfRoot(3)},
		{Kind: KindDelta, Alg: codeSwitching, Src: 3, Seq: 9, BaseSeq: 4,
			Base: switching.SelfRoot(3), State: switching.SelfRoot(3)},
		{Kind: KindResync, Alg: codeSwitching, Src: 8, Seq: 2},
		{Kind: KindAdvert, Alg: codeSwitching, Src: 5, Seq: 3,
			AdminAddr: "127.0.0.1:7070", Neighbors: []graph.NodeID{1, 2, 8}},
		{Kind: KindLeave, Alg: codeSwitching, Src: 5, Seq: 44},
	}
	for _, fr := range seedFrames {
		data, err := Encode(fr, Switching{}, &b, nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// The retired fixed-header format (the committed corpus holds whole
	// frames of it): rejected on its first byte.
	f.Add([]byte("ST\x01\x01\x02\x00garbage.........."))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []Codec{Spanning{}, Switching{}} {
			fr, err := Decode(c, data)
			if err != nil {
				continue
			}
			if fr.Kind == KindDelta && fr.BaseSeq < fr.Seq {
				// A non-self-contained delta is only half decoded — the
				// field bits wait for the receiver's anchor — so it cannot
				// re-encode. It must still apply (or reject) without
				// panicking against an arbitrary base.
				if st, err := ApplyDelta(c, fr, switching.SelfRoot(3)); err == nil && st == nil {
					t.Fatalf("ApplyDelta returned no state and no error")
				}
				continue
			}
			re, err := Encode(fr, c, &b, nil)
			if err != nil {
				// A heartbeat whose payload decoded under the wrong codec
				// still re-encodes; an encode failure means Decode built a
				// frame Encode considers foreign — a codec asymmetry bug.
				t.Fatalf("accepted frame failed to re-encode: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("accepted frame not canonical: %x vs %x", data, re)
			}
		}
	})
}

// FuzzCorruptionRejected pairs a valid frame with a fuzzer-chosen
// mutation and asserts the mutation never passes the checksum: the
// guarantee the byte-corrupting transport fault leans on.
func FuzzCorruptionRejected(f *testing.F) {
	var b bits.Builder
	c := Codec(Switching{})
	base, err := Encode(Frame{Kind: KindDelta, Alg: c.Code(), Src: 11, Seq: 2, BaseSeq: 2,
		State: switching.SelfRoot(11)}, c, &b, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(0, byte(1))
	f.Add(5, byte(0x80))
	f.Add(len(base)-1, byte(0xff))
	f.Fuzz(func(t *testing.T, pos int, x byte) {
		if x == 0 || pos < 0 {
			t.Skip()
		}
		pos %= len(base)
		mut := append([]byte(nil), base...)
		mut[pos] ^= x
		if _, err := Decode(c, mut); err == nil {
			t.Fatalf("single-byte corruption at %d (^%#x) accepted", pos, x)
		}
	})
}
