package bits

import (
	"testing"
)

// bitsFromBytes expands data into a bit string, MSB first per byte.
func bitsFromBytes(data []byte) String {
	var s String
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			s = s.AppendBit(b>>uint(i)&1 == 1)
		}
	}
	return s
}

// FuzzGammaRoundtrip checks encode→decode identity for arbitrary values:
// the gamma code of any v >= 1 has exactly GammaLen(v) bits and decodes
// back to v with nothing left over — and the word-at-a-time Builder and
// ReadGamma agree with the bit-at-a-time oracle, at an offset that
// makes the code straddle a word boundary.
func FuzzGammaRoundtrip(f *testing.F) {
	for _, v := range []uint64{1, 2, 3, 7, 8, 255, 256, 1 << 20, 1<<63 - 1, 1 << 63, ^uint64(0)} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v uint64) {
		if v == 0 {
			t.Skip("gamma codes start at 1")
		}
		s := AppendGamma(String{}, v)
		if s.Len() != GammaLen(v) {
			t.Fatalf("AppendGamma(%d) has %d bits, GammaLen says %d", v, s.Len(), GammaLen(v))
		}
		r := NewReader(s)
		got, err := ReadGamma(r)
		if err != nil {
			t.Fatalf("ReadGamma(gamma(%d)): %v", v, err)
		}
		if got != v {
			t.Fatalf("roundtrip: got %d, want %d", got, v)
		}
		if r.Remaining() != 0 {
			t.Fatalf("roundtrip of %d left %d bits unread", v, r.Remaining())
		}
		var fast, slow Builder
		lead := int(v % 70)
		for i := 0; i < lead; i++ {
			fast.AppendBit(true)
			slow.AppendBit(true)
		}
		fast.AppendGamma(v)
		appendGammaBitwise(&slow, v)
		if !fast.String().Equal(slow.String()) {
			t.Fatalf("Builder.AppendGamma(%d) after %d bits: %s, bitwise oracle %s", v, lead, fast.String(), slow.String())
		}
		if got, pos, err := checkReadGammaAgrees(t, fast.String(), lead); err != nil || got != v || pos != fast.Len() {
			t.Fatalf("gamma(%d) at bit %d: decoded %d, pos %d of %d, err %v", v, lead, got, pos, fast.Len(), err)
		}
	})
}

// FuzzGammaStream decodes arbitrary bit streams: ReadGamma must never
// panic, must agree with the bit-at-a-time oracle on every code
// (value, error, position — the failing last one included), and —
// because gamma is a canonical prefix code — re-encoding each decoded
// value must reproduce exactly the bits it consumed.
func FuzzGammaStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80}) // 64 zeros, then 1
	f.Add([]byte{0x55, 0xaa, 0x0f, 0xf0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("cap stream length")
		}
		s := bitsFromBytes(data)
		r := NewReader(s)
		for r.Remaining() > 0 {
			before := r.Pos()
			checkReadGammaAgrees(t, s, before)
			v, err := ReadGamma(r)
			if err != nil {
				break
			}
			if v == 0 {
				t.Fatalf("ReadGamma returned 0 at bit %d", before)
			}
			consumed := r.Pos() - before
			re := AppendGamma(String{}, v)
			if re.Len() != consumed {
				t.Fatalf("decoded %d from %d bits, re-encodes to %d", v, consumed, re.Len())
			}
			if !s.Suffix(before).Prefix(consumed).Equal(re) {
				t.Fatalf("re-encoding %d does not reproduce consumed bits at %d", v, before)
			}
		}
	})
}
