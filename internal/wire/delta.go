package wire

import (
	"fmt"

	"silentspan/internal/bits"
	"silentspan/internal/runtime"
)

// Delta heartbeats: the silence-exploiting wire family. A stabilized
// node's register never changes, so re-sending it whole would carry
// the same bytes forever; the delta family sends only what moved, and
// with identities and counters gamma-coded inside the payload a quiet
// keep-alive is ~13 bytes.
//
// KindDelta payload (after the shared gamma(src), gamma(seq+1)):
//
//	gamma(seq-baseSeq+1)  anchor distance; 0 ⇒ self-contained
//	quiet report          termination-detector block (see quiet.go)
//	if self-contained:    presence bit, then the full register
//	                      (this frame BECOMES the receiver's anchor)
//	else:                 codec delta: per-field changed mask, then
//	                      the changed fields, relative to the anchor
//	                      register the receiver cached at baseSeq
//
// Deltas are anchored, not chained: every delta is relative to the
// sender's last self-contained frame, so duplicated or reordered
// deltas apply identically (the seq filter alone decides freshness)
// and one lost delta never poisons the next. A receiver holding no
// anchor — or an anchor older than baseSeq — cannot apply the delta;
// it answers with KindResync and the sender re-anchors by broadcasting
// a self-contained frame. Decode defers delta application (it has no
// access to the receiver's anchor cache): it parses src/seq/baseSeq
// and keeps the payload; ApplyDelta finishes the job.
//
// KindResync carries only the shared prefix: the requester's identity,
// and in seq the highest anchor seq it holds (0 = none).
const (
	// KindDelta carries the sender's register as a change-mask against a
	// seq-anchored base (or self-contained when BaseSeq == Seq).
	KindDelta Kind = 3
	// KindResync asks a neighbor to re-anchor: the requester is missing
	// the base a delta referenced.
	KindResync Kind = 4
)

// appendDelta writes the delta-specific payload fields.
func appendDelta(b *bits.Builder, f Frame, c Codec) error {
	if f.BaseSeq > f.Seq {
		return fmt.Errorf("wire: delta base seq %d ahead of seq %d", f.BaseSeq, f.Seq)
	}
	b.AppendGamma(f.Seq - f.BaseSeq + 1)
	// The quiet report precedes the register body so a receiver can
	// read it even when the delta must be parked for ApplyDelta.
	appendQuiet(b, f.Q)
	if f.BaseSeq == f.Seq {
		// Self-contained: the anchor frame.
		b.AppendBit(f.State != nil)
		if f.State == nil {
			return nil
		}
		return appendRegister(b, c.Register(), f.State)
	}
	if f.Base == nil || f.State == nil {
		return fmt.Errorf("wire: delta frame needs base and current registers")
	}
	return appendChanges(b, c.Register(), f.Base, f.State)
}

// readDelta parses the delta-specific payload fields into f. For a
// frame that is not self-contained (BaseSeq < Seq) it stops at the
// codec delta, which only ApplyDelta can decode.
func readDelta(r *bits.Reader, f *Frame, c Codec) error {
	dist1, err := bits.ReadGamma(r)
	if err != nil {
		return fmt.Errorf("%w: base distance: %v", ErrPayload, err)
	}
	if dist1-1 > f.Seq {
		return fmt.Errorf("%w: base %d before seq 0", ErrPayload, dist1-1)
	}
	f.BaseSeq = f.Seq - (dist1 - 1)
	if f.Q, err = readQuiet(r); err != nil {
		return fmt.Errorf("%w: quiet report: %v", ErrPayload, err)
	}
	if f.BaseSeq < f.Seq {
		return nil
	}
	present, err := r.ReadBit()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrPayload, err)
	}
	if present {
		if f.State, err = readRegister(r, c.Register()); err != nil {
			return fmt.Errorf("%w: %v", ErrPayload, err)
		}
	}
	return nil
}

// ApplyDelta finishes decoding a non-self-contained delta frame
// against the anchor register the receiver cached at f.BaseSeq. It
// enforces the same canonicality contract as Decode: every payload bit
// is consumed, and trailing padding is all-zero and under one byte.
func ApplyDelta(c Codec, f Frame, base runtime.State) (runtime.State, error) {
	return f.ApplyDelta(c, base)
}

// ApplyDelta is the package-level ApplyDelta over a frame the caller
// owns, read in place.
func (f *Frame) ApplyDelta(c Codec, base runtime.State) (runtime.State, error) {
	if f.Kind != KindDelta || f.BaseSeq >= f.Seq {
		return nil, fmt.Errorf("wire: ApplyDelta on a non-delta frame (kind %d)", f.Kind)
	}
	if base == nil {
		return nil, fmt.Errorf("wire: ApplyDelta without a base register")
	}
	var r bits.Reader
	r.Reset(f.delta)
	if err := r.Skip(f.deltaOff); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPayload, err)
	}
	st, err := applyChanges(&r, c.Register(), base)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPayload, err)
	}
	if err := checkPadding(&r); err != nil {
		return nil, err
	}
	return st, nil
}
