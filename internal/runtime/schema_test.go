package runtime

import (
	"math"
	"testing"
)

// testSchema has one field of every kind and a gated one: a flag, the
// Int it gates, an Enum, and a plain Int.
var testSchema = &Schema{
	Name: "test",
	Fields: []Field{
		{Label: "has", Kind: Flag},
		{Label: "x", Kind: Int, Gate: 1},
		{Label: "ph", Kind: Enum, Max: 5},
		{Label: "id", Kind: Int},
	},
}

// TestSchemaBitsAndFormat: EncodedBits charges a flag one bit, an Enum
// its fixed width, a present Int its natural width and an absent one
// nothing; Format prints every non-flag field, ⊥ for an absent one, and
// renders the int64 extremes the wire's zig-zag coding carries exactly.
func TestSchemaBitsAndFormat(t *testing.T) {
	cases := []struct {
		name string
		v    Values
		bits int
		str  string
	}{
		{"zero, gate clear", Values{0, 0, 0, 0}, 1 + 3 + 1, "(x=⊥ ph=0 id=0)"},
		{"gate clear hides x", Values{0, 1 << 20, 2, 7}, 1 + 3 + 3, "(x=⊥ ph=2 id=7)"},
		{"gate set", Values{1, 1 << 20, 5, 7}, 1 + 21 + 3 + 3, "(x=1048576 ph=5 id=7)"},
		{"one", Values{1, 1, 1, 1}, 1 + 1 + 3 + 1, "(x=1 ph=1 id=1)"},
		{"max int64", Values{1, math.MaxInt64, 0, math.MaxInt64}, 1 + 63 + 3 + 63,
			"(x=9223372036854775807 ph=0 id=9223372036854775807)"},
	}
	for _, c := range cases {
		if got := testSchema.EncodedBits(c.v); got != c.bits {
			t.Errorf("%s: EncodedBits = %d, want %d", c.name, got, c.bits)
		}
		if got := testSchema.Format(c.v); got != c.str {
			t.Errorf("%s: Format = %q, want %q", c.name, got, c.str)
		}
	}
	if got, want := testSchema.Format(Values{1, math.MinInt64, 0, -1}), "(x=-9223372036854775808 ph=0 id=-1)"; got != want {
		t.Errorf("Format of the negative extreme = %q, want %q", got, want)
	}
	empty := &Schema{}
	if got := empty.Format(Values{}); got != "()" {
		t.Errorf("Format of a fieldless schema = %q, want ()", got)
	}
	if got := empty.EncodedBits(Values{}); got != 0 {
		t.Errorf("EncodedBits of a fieldless schema = %d, want 0", got)
	}
}
