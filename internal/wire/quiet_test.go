package wire

import (
	"testing"

	"silentspan/internal/bits"
	"silentspan/internal/spanning"
)

// quietSamples spans the report shapes the detector emits: the
// zero-value (4 bits on the wire), a small active claim, an
// announcement, and epoch values past 32 bits (the Lamport clock never
// wraps).
func quietSamples() []QuietReport {
	return []QuietReport{
		{},
		{Epoch: 3, Sub: true, Count: 7},
		{Epoch: 9, Sub: true, Count: 64, Ann: 9},
		{Epoch: 1 << 40, Sub: false, Count: 0, Ann: 1 << 39},
	}
}

// TestQuietRoundtripHeartbeat: the quiet report rides every
// self-contained heartbeat (BaseSeq == Seq) — with a register and on
// the register-less one a node sends before it has booted.
func TestQuietRoundtripHeartbeat(t *testing.T) {
	var b bits.Builder
	c := Codec(Spanning{})
	st := spanning.State{Root: 3, Parent: 1, Dist: 2}
	for _, q := range quietSamples() {
		for _, withState := range []bool{true, false} {
			f := Frame{Kind: KindDelta, Alg: c.Code(), Src: 5, Seq: 11, BaseSeq: 11, Q: q}
			if withState {
				f.State = st
			}
			data, err := Encode(f, c, &b, nil)
			if err != nil {
				t.Fatalf("encode %+v: %v", q, err)
			}
			got, err := Decode(c, data)
			if err != nil {
				t.Fatalf("decode %+v: %v", q, err)
			}
			if got.Q != q {
				t.Fatalf("heartbeat quiet report %+v != %+v (state=%v)", got.Q, q, withState)
			}
		}
	}
}

// TestQuietRoundtripDelta: on a true delta the report must decode
// *before* the parked remainder, so a receiver reads the detector state
// even when it cannot apply the register delta yet.
func TestQuietRoundtripDelta(t *testing.T) {
	var b bits.Builder
	c := Codec(Spanning{})
	base := spanning.State{Root: 3, Parent: 1, Dist: 2}
	cur := spanning.State{Root: 3, Parent: 4, Dist: 3}
	for _, q := range quietSamples() {
		// True delta: Q is readable off the decoded frame immediately,
		// and ApplyDelta still reconstructs the register afterwards.
		data, err := Encode(Frame{Kind: KindDelta, Alg: c.Code(), Src: 5, Seq: 12, BaseSeq: 9,
			Base: base, State: cur, Q: q}, c, &b, nil)
		if err != nil {
			t.Fatalf("encode delta %+v: %v", q, err)
		}
		got, err := Decode(c, data)
		if err != nil {
			t.Fatalf("decode delta %+v: %v", q, err)
		}
		if got.Q != q {
			t.Fatalf("delta quiet report %+v != %+v (before apply)", got.Q, q)
		}
		st, err := ApplyDelta(c, got, base)
		if err != nil {
			t.Fatalf("apply delta %+v: %v", q, err)
		}
		if !st.Equal(cur) {
			t.Fatalf("delta register %v != %v with quiet report %+v", st, cur, q)
		}
	}
}
