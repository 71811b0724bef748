package wire

import (
	"fmt"

	"silentspan/internal/bits"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
	"silentspan/internal/switching"
)

// Codec serializes one register type. Its encodings are derived from
// the register's runtime.Schema, field by field in schema order:
//
//	anchor  a flag as a raw bit, every other field zig-zag gamma-coded
//	delta   one bit per field — a flag's flip, another field's change —
//	        then the changed non-flag fields' values
//
// An unchanged register is an all-zero mask: the quiet keep-alive.
type Codec interface {
	// Code identifies the codec in the frame header.
	Code() uint8
	// Name identifies the codec in logs.
	Name() string
	// Register returns the schema the codec is derived from.
	Register() *runtime.Schema
}

// registered is an algorithm that declares its register's schema. A
// wrapper embedding such an algorithm inherits the declaration.
type registered interface {
	Register() *runtime.Schema
}

// schemaCodec is the Codec of the register r declares; its zero value
// serves when R is a concrete algorithm type.
type schemaCodec[R registered] struct{ r R }

func (c schemaCodec[R]) Code() uint8               { return c.r.Register().Code }
func (c schemaCodec[R]) Name() string              { return c.r.Register().Name }
func (c schemaCodec[R]) Register() *runtime.Schema { return c.r.Register() }

// The codecs of the two register types in use: the spanning substrate
// stores spanning's, and the switching family — switching itself, the
// PLS-guided BFS, and the engine-driven MST/MDST — stores switching's.
type (
	Spanning  = schemaCodec[spanning.Algorithm]
	Switching = schemaCodec[switching.Algorithm]
)

// ForAlgorithm returns the codec of the register alg declares.
func ForAlgorithm(alg runtime.Algorithm) (Codec, error) {
	r, ok := alg.(registered)
	if !ok {
		return nil, fmt.Errorf("wire: no codec for algorithm %q", alg.Name())
	}
	return schemaCodec[registered]{r}, nil
}

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

// foreign refuses a register of another type: one from another
// algorithm never goes on the wire.
func foreign(sc *runtime.Schema, s runtime.State) error {
	return fmt.Errorf("wire: %s codec got %T", sc.Name, s)
}

// appendRegister encodes s as an anchor.
func appendRegister(b *bits.Builder, sc *runtime.Schema, s runtime.State) error {
	v, ok := sc.Pack(s)
	if !ok {
		return foreign(sc, s)
	}
	for i := range sc.Fields {
		if sc.Fields[i].Kind == runtime.Flag {
			b.AppendBit(v[i] != 0)
		} else if err := appendInt(b, v[i]); err != nil {
			return err
		}
	}
	return nil
}

// readRegister parses one anchor off the reader.
func readRegister(r *bits.Reader, sc *runtime.Schema) (runtime.State, error) {
	var v runtime.Values
	for i := range sc.Fields {
		var err error
		if sc.Fields[i].Kind == runtime.Flag {
			var set bool
			set, err = r.ReadBit()
			if set {
				v[i] = 1
			}
		} else {
			v[i], err = readInt(r)
		}
		if err != nil {
			return nil, err
		}
	}
	return sc.Unpack(v), nil
}

// appendChanges encodes cur as a delta against base.
func appendChanges(b *bits.Builder, sc *runtime.Schema, base, cur runtime.State) error {
	bv, ok := sc.Pack(base)
	if !ok {
		return foreign(sc, base)
	}
	cv, ok := sc.Pack(cur)
	if !ok {
		return foreign(sc, cur)
	}
	for i := range sc.Fields {
		b.AppendBit(bv[i] != cv[i])
	}
	for i := range sc.Fields {
		if sc.Fields[i].Kind != runtime.Flag && bv[i] != cv[i] {
			if err := appendInt(b, cv[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyChanges parses one delta off the reader and applies it onto a
// copy of base. An empty change mask returns base itself, so ingesting
// a keep-alive allocates nothing.
func applyChanges(r *bits.Reader, sc *runtime.Schema, base runtime.State) (runtime.State, error) {
	v, ok := sc.Pack(base)
	if !ok {
		return nil, foreign(sc, base)
	}
	// The mask's first bit is field 0's, so field i sits k−1−i bits up.
	k := len(sc.Fields)
	mask, err := r.ReadBits(k)
	if err != nil {
		return nil, err
	}
	if mask == 0 {
		return base, nil
	}
	for i := range sc.Fields {
		switch {
		case mask>>(k-1-i)&1 == 0:
		case sc.Fields[i].Kind == runtime.Flag:
			v[i] ^= 1
		default:
			if v[i], err = readChanged(r, v[i]); err != nil {
				return nil, err
			}
		}
	}
	return sc.Unpack(v), nil
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
