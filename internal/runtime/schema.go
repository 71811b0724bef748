package runtime

import (
	"math/bits"
	"strconv"
	"strings"
)

// MaxFields bounds a register's field count: the largest register,
// switching.State, has ten.
const MaxFields = 10

// Values holds one register's fields in schema order, each widened to
// int64; a Flag is 0 or 1. It travels by value: filled through a
// pointer, the array would escape — one allocation per wire frame.
type Values [MaxFields]int64

// FieldKind says how a register field is sized.
type FieldKind uint8

// The field kinds. On the wire a Flag is a raw bit and every other
// field is zig-zag gamma-coded (internal/wire).
const (
	// Flag is one bit.
	Flag FieldKind = iota
	// Int is an identity, distance or count, sized at its natural width
	// BitsForValue(v).
	Int
	// Enum is a phase in {0..Max}, sized at the fixed width
	// BitsForValue(Max).
	Enum
)

// Field is one register field.
type Field struct {
	// Label names the field in String. Flags are not printed.
	Label string
	Kind  FieldKind
	// Max is an Enum's largest value.
	Max int
	// Gate, when nonzero, is 1 + the position of the Flag gating the
	// field: while that flag is clear the field reads ⊥ and costs no
	// bits. The wire carries it regardless.
	Gate int
}

// Schema declares a register type once: its fields in wire order, and
// the pair that converts a register to and from its Values. The
// register's size in bits and its trace rendering are derived from it
// here, its anchor and delta encodings in internal/wire.
type Schema struct {
	// Name and Code identify the register type in logs and in a wire
	// frame's header.
	Name string
	Code uint8
	// Fields lists the fields in wire order; at most MaxFields.
	Fields []Field
	// Pack reads a register's fields; ok is false for a foreign type.
	Pack func(State) (v Values, ok bool)
	// Unpack builds the register holding v.
	Unpack func(v Values) State
}

// absent reports whether the field reads ⊥ in v.
func (f Field) absent(v *Values) bool { return f.Gate != 0 && v[f.Gate-1] == 0 }

// EncodedBits is the size of the register holding v under the natural
// encoding: one bit per flag, an Enum at its fixed width, any other
// present field at its natural width.
func (sc *Schema) EncodedBits(v Values) int {
	n := 0
	for i, f := range sc.Fields {
		switch {
		case f.absent(&v):
		case f.Kind == Flag:
			n++
		case f.Kind == Enum:
			n += BitsForValue(f.Max)
		default:
			n += BitsForValue(int(v[i]))
		}
	}
	return n
}

// Format renders the register holding v for traces:
// "(label=value …)" over the non-flag fields, ⊥ for an absent one.
func (sc *Schema) Format(v Values) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range sc.Fields {
		if f.Kind == Flag {
			continue
		}
		if b.Len() > 1 {
			b.WriteByte(' ')
		}
		b.WriteString(f.Label)
		b.WriteByte('=')
		if f.absent(&v) {
			b.WriteString("⊥")
		} else {
			b.WriteString(strconv.FormatInt(v[i], 10))
		}
	}
	b.WriteByte(')')
	return b.String()
}

// BitsForValue returns the number of bits needed to store any value in
// {0..max}: the width used by EncodedBits implementations for bounded
// integers such as IDs, distances and subtree sizes. BitsForValue(0) and
// BitsForValue(1) are 1. The width is computed with bits.Len, so the
// full int range is handled without overflow.
func BitsForValue(max int) int {
	if max < 0 {
		panic("runtime: negative max")
	}
	if max <= 1 {
		return 1
	}
	return bits.Len(uint(max))
}
