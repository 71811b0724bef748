package wire

import (
	"fmt"

	"silentspan/internal/bfs"
	"silentspan/internal/bits"
	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
	"silentspan/internal/switching"
)

// Codec serializes one register type. Two codecs cover all five
// certified algorithms: the spanning substrate stores spanning.State,
// and the switching family — switching itself, the PLS-guided BFS, and
// the engine-driven MST/MDST — stores switching.State.
type Codec interface {
	// Code identifies the codec in the frame header.
	Code() uint8
	// Name identifies the codec in logs.
	Name() string
	// AppendState encodes s onto the builder. It fails on foreign state
	// types — a register from another algorithm never goes on the wire.
	AppendState(b *bits.Builder, s runtime.State) error
	// DecodeState parses one register off the reader.
	DecodeState(r *bits.Reader) (runtime.State, error)
	// AppendDelta encodes cur as a change-mask delta against base: one
	// changed bit per field, then the changed fields in order. Boolean
	// fields encode as a bare flip bit. An unchanged register encodes as
	// an all-zero mask — the quiet keep-alive.
	AppendDelta(b *bits.Builder, base, cur runtime.State) error
	// ApplyDelta parses one delta off the reader and applies it onto a
	// copy of base; an empty change mask returns base itself, so ingesting
	// a keep-alive allocates nothing. A changed field carrying its base
	// value is rejected as non-canonical, keeping decode the exact inverse
	// of encode.
	ApplyDelta(r *bits.Reader, base runtime.State) (runtime.State, error)
}

// The codec codes.
const (
	codeSpanning  uint8 = 1
	codeSwitching uint8 = 2
)

// appendInt gamma-codes a signed field: the zigzag fold maps small
// magnitudes of either sign to small codes (identities and distances
// are small; sentinel values like trees.None are tiny), then the
// Elias-gamma code of the folded value plus one makes it self-
// delimiting — 2⌈log₂|v|⌉+O(1) bits. The one unrepresentable value is
// math.MinInt64, whose fold saturates the +1; no register field can
// legitimately hold it, so it is refused rather than worked around.
func appendInt(b *bits.Builder, v int64) error {
	u := uint64(v<<1) ^ uint64(v>>63)
	if u == ^uint64(0) {
		return fmt.Errorf("wire: field value %d not encodable", v)
	}
	b.AppendGamma(u + 1)
	return nil
}

// readInt reverses appendInt.
func readInt(r *bits.Reader) (int64, error) {
	g, err := bits.ReadGamma(r)
	if err != nil {
		return 0, err
	}
	u := g - 1
	return int64(u>>1) ^ -int64(u&1), nil
}

// appendBit / readBit encode one boolean field.
func readBit(r *bits.Reader) (bool, error) { return r.ReadBit() }

// Spanning is the codec for spanning.State registers.
type Spanning struct{}

// Code implements Codec.
func (Spanning) Code() uint8 { return codeSpanning }

// Name implements Codec.
func (Spanning) Name() string { return "spanning" }

// AppendState implements Codec.
func (Spanning) AppendState(b *bits.Builder, s runtime.State) error {
	ss, ok := s.(spanning.State)
	if !ok {
		return fmt.Errorf("wire: spanning codec got %T", s)
	}
	for _, v := range []int64{int64(ss.Root), int64(ss.Parent), int64(ss.Dist)} {
		if err := appendInt(b, v); err != nil {
			return err
		}
	}
	return nil
}

// DecodeState implements Codec.
func (Spanning) DecodeState(r *bits.Reader) (runtime.State, error) {
	var s spanning.State
	root, err := readInt(r)
	if err != nil {
		return nil, err
	}
	parent, err := readInt(r)
	if err != nil {
		return nil, err
	}
	dist, err := readInt(r)
	if err != nil {
		return nil, err
	}
	s.Root, s.Parent, s.Dist = graph.NodeID(root), graph.NodeID(parent), int(dist)
	return s, nil
}

// AppendDelta implements Codec.
func (Spanning) AppendDelta(b *bits.Builder, base, cur runtime.State) error {
	bs, ok := base.(spanning.State)
	if !ok {
		return fmt.Errorf("wire: spanning codec got base %T", base)
	}
	cs, ok := cur.(spanning.State)
	if !ok {
		return fmt.Errorf("wire: spanning codec got %T", cur)
	}
	fields := [...][2]int64{
		{int64(bs.Root), int64(cs.Root)},
		{int64(bs.Parent), int64(cs.Parent)},
		{int64(bs.Dist), int64(cs.Dist)},
	}
	for _, f := range fields {
		b.AppendBit(f[0] != f[1])
	}
	for _, f := range fields {
		if f[0] != f[1] {
			if err := appendInt(b, f[1]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ApplyDelta implements Codec.
func (Spanning) ApplyDelta(r *bits.Reader, base runtime.State) (runtime.State, error) {
	s, ok := base.(spanning.State)
	if !ok {
		return nil, fmt.Errorf("wire: spanning codec got base %T", base)
	}
	var mask [3]bool
	for i := range mask {
		var err error
		if mask[i], err = r.ReadBit(); err != nil {
			return nil, err
		}
	}
	if mask == [3]bool{} {
		// The keep-alive: hand back the caller's value, not a fresh box.
		return base, nil
	}
	if mask[0] {
		v, err := readChanged(r, int64(s.Root))
		if err != nil {
			return nil, err
		}
		s.Root = graph.NodeID(v)
	}
	if mask[1] {
		v, err := readChanged(r, int64(s.Parent))
		if err != nil {
			return nil, err
		}
		s.Parent = graph.NodeID(v)
	}
	if mask[2] {
		v, err := readChanged(r, int64(s.Dist))
		if err != nil {
			return nil, err
		}
		s.Dist = int(v)
	}
	return s, nil
}

// readChanged reads one delta field and rejects the non-canonical case
// of a "changed" field carrying its base value: the encoder never
// emits it, so accepting it would break decode ≡ encode⁻¹.
func readChanged(r *bits.Reader, old int64) (int64, error) {
	v, err := readInt(r)
	if err != nil {
		return 0, err
	}
	if v == old {
		return 0, fmt.Errorf("wire: non-canonical delta: field unchanged at %d", v)
	}
	return v, nil
}

// Switching is the codec for switching.State registers.
type Switching struct{}

// Code implements Codec.
func (Switching) Code() uint8 { return codeSwitching }

// Name implements Codec.
func (Switching) Name() string { return "switching" }

// AppendState implements Codec.
func (Switching) AppendState(b *bits.Builder, s runtime.State) error {
	ss, ok := switching.RegOf(s)
	if !ok {
		return fmt.Errorf("wire: switching codec got %T", s)
	}
	// The raw D and S fields travel even when their presence bits are
	// cleared: the protocol's distance-chain coherence layer reads D
	// through the prune (HasD hides it from the verifier, not from the
	// rules), so eliding hidden fields would change algorithm behavior
	// between the shared-memory and message-passing realizations.
	b.AppendBit(ss.HasD)
	b.AppendBit(ss.HasS)
	for _, v := range []int64{int64(ss.Root), int64(ss.Parent), int64(ss.D), int64(ss.S),
		int64(ss.Sw), int64(ss.SwTarget), int64(ss.Pr), int64(ss.Sub)} {
		if err := appendInt(b, v); err != nil {
			return err
		}
	}
	return nil
}

// DecodeState implements Codec.
func (Switching) DecodeState(r *bits.Reader) (runtime.State, error) {
	var s switching.State
	var err error
	if s.HasD, err = readBit(r); err != nil {
		return nil, err
	}
	if s.HasS, err = readBit(r); err != nil {
		return nil, err
	}
	var f [8]int64
	for i := range f {
		if f[i], err = readInt(r); err != nil {
			return nil, err
		}
	}
	s.Root, s.Parent = graph.NodeID(f[0]), graph.NodeID(f[1])
	s.D, s.S = int(f[2]), int(f[3])
	s.Sw = switching.SwPhase(f[4])
	s.SwTarget = graph.NodeID(f[5])
	s.Pr = switching.PrPhase(f[6])
	s.Sub = switching.SubPhase(f[7])
	return s, nil
}

// AppendDelta implements Codec. The two presence booleans encode as
// flip bits (the mask bit alone carries the change); the eight integer
// fields follow the mask-then-values layout of the spanning codec.
func (Switching) AppendDelta(b *bits.Builder, base, cur runtime.State) error {
	bs, ok := switching.RegOf(base)
	if !ok {
		return fmt.Errorf("wire: switching codec got base %T", base)
	}
	cs, ok := switching.RegOf(cur)
	if !ok {
		return fmt.Errorf("wire: switching codec got %T", cur)
	}
	b.AppendBit(bs.HasD != cs.HasD)
	b.AppendBit(bs.HasS != cs.HasS)
	fields := [...][2]int64{
		{int64(bs.Root), int64(cs.Root)},
		{int64(bs.Parent), int64(cs.Parent)},
		{int64(bs.D), int64(cs.D)},
		{int64(bs.S), int64(cs.S)},
		{int64(bs.Sw), int64(cs.Sw)},
		{int64(bs.SwTarget), int64(cs.SwTarget)},
		{int64(bs.Pr), int64(cs.Pr)},
		{int64(bs.Sub), int64(cs.Sub)},
	}
	for _, f := range fields {
		b.AppendBit(f[0] != f[1])
	}
	for _, f := range fields {
		if f[0] != f[1] {
			if err := appendInt(b, f[1]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ApplyDelta implements Codec.
func (Switching) ApplyDelta(r *bits.Reader, base runtime.State) (runtime.State, error) {
	s, ok := switching.RegOf(base)
	if !ok {
		return nil, fmt.Errorf("wire: switching codec got base %T", base)
	}
	flipD, err := r.ReadBit()
	if err != nil {
		return nil, err
	}
	flipS, err := r.ReadBit()
	if err != nil {
		return nil, err
	}
	if flipD {
		s.HasD = !s.HasD
	}
	if flipS {
		s.HasS = !s.HasS
	}
	var mask [8]bool
	for i := range mask {
		if mask[i], err = r.ReadBit(); err != nil {
			return nil, err
		}
	}
	if !flipD && !flipS && mask == [8]bool{} {
		return base, nil // the keep-alive, as in the spanning codec
	}
	old := [...]int64{int64(s.Root), int64(s.Parent), int64(s.D), int64(s.S),
		int64(s.Sw), int64(s.SwTarget), int64(s.Pr), int64(s.Sub)}
	vals := old
	for i := range mask {
		if mask[i] {
			if vals[i], err = readChanged(r, old[i]); err != nil {
				return nil, err
			}
		}
	}
	s.Root, s.Parent = graph.NodeID(vals[0]), graph.NodeID(vals[1])
	s.D, s.S = int(vals[2]), int(vals[3])
	s.Sw = switching.SwPhase(vals[4])
	s.SwTarget = graph.NodeID(vals[5])
	s.Pr = switching.PrPhase(vals[6])
	s.Sub = switching.SubPhase(vals[7])
	return s, nil
}

// ByCode returns the codec registered under the given frame code.
func ByCode(code uint8) (Codec, bool) {
	switch code {
	case codeSpanning:
		return Spanning{}, true
	case codeSwitching:
		return Switching{}, true
	}
	return nil, false
}

// ForAlgorithm selects the register codec matching an algorithm's state
// type: the spanning substrate uses the spanning codec; the switching
// family (switching, PLS-guided BFS, and the engine-driven MST/MDST,
// which run switching registers) uses the switching codec.
func ForAlgorithm(alg runtime.Algorithm) (Codec, error) {
	switch alg.(type) {
	case spanning.Algorithm:
		return Spanning{}, nil
	case switching.Algorithm:
		return Switching{}, nil
	case bfs.Algorithm:
		return Switching{}, nil
	}
	return nil, fmt.Errorf("wire: no codec for algorithm %q", alg.Name())
}
