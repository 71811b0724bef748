package bits

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestStringBasics(t *testing.T) {
	var s String
	if s.Len() != 0 {
		t.Fatalf("zero value Len = %d, want 0", s.Len())
	}
	s = s.AppendBit(true)
	s = s.AppendBit(false)
	s = s.AppendBit(true)
	if got := s.String(); got != "101" {
		t.Fatalf("String() = %q, want %q", got, "101")
	}
	if !s.Bit(0) || s.Bit(1) || !s.Bit(2) {
		t.Fatalf("bit values wrong in %q", s)
	}
}

func TestStringImmutability(t *testing.T) {
	s := MustParse("1010")
	u := s.AppendBit(true)
	v := s.AppendBit(false)
	if s.String() != "1010" {
		t.Errorf("receiver mutated to %q", s)
	}
	if u.String() != "10101" || v.String() != "10100" {
		t.Errorf("appends interfered: %q, %q", u, v)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("01x0"); err == nil {
		t.Fatal("Parse accepted invalid input")
	}
}

func TestConcatPrefixSuffix(t *testing.T) {
	s := MustParse("1101")
	u := MustParse("001")
	c := s.Concat(u)
	if c.String() != "1101001" {
		t.Fatalf("Concat = %q", c)
	}
	if got := c.Prefix(4); !got.Equal(s) {
		t.Errorf("Prefix(4) = %q, want %q", got, s)
	}
	if got := c.Suffix(4); !got.Equal(u) {
		t.Errorf("Suffix(4) = %q, want %q", got, u)
	}
	if !c.HasPrefix(s) {
		t.Error("HasPrefix(s) = false")
	}
	if c.HasPrefix(MustParse("111")) {
		t.Error("HasPrefix accepted non-prefix")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"0", "1", -1},
		{"1", "0", 1},
		{"01", "011", -1}, // proper prefix is smaller
		{"011", "01", 1},
		{"1010", "1010", 0},
		{"100", "101", -1},
	}
	for _, c := range cases {
		got := MustParse(c.a).Compare(MustParse(c.b))
		if got != c.want {
			t.Errorf("Compare(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCommonPrefixLen(t *testing.T) {
	if got := MustParse("1101").CommonPrefixLen(MustParse("1100")); got != 3 {
		t.Errorf("CommonPrefixLen = %d, want 3", got)
	}
	if got := MustParse("").CommonPrefixLen(MustParse("101")); got != 0 {
		t.Errorf("CommonPrefixLen = %d, want 0", got)
	}
	if got := MustParse("10").CommonPrefixLen(MustParse("1011")); got != 2 {
		t.Errorf("CommonPrefixLen = %d, want 2", got)
	}
}

func TestGammaRoundTrip(t *testing.T) {
	for _, v := range []uint64{1, 2, 3, 4, 7, 8, 100, 1 << 20, 1<<40 + 13} {
		s := AppendGamma(String{}, v)
		if s.Len() != GammaLen(v) {
			t.Errorf("gamma(%d) length = %d, want %d", v, s.Len(), GammaLen(v))
		}
		got, err := ReadGamma(NewReader(s))
		if err != nil {
			t.Fatalf("ReadGamma(%d): %v", v, err)
		}
		if got != v {
			t.Errorf("gamma round-trip: got %d, want %d", got, v)
		}
	}
}

func TestGammaSequence(t *testing.T) {
	vals := []uint64{5, 1, 19, 2, 1000003}
	var s String
	for _, v := range vals {
		s = AppendGamma(s, v)
	}
	r := NewReader(s)
	for i, want := range vals {
		got, err := ReadGamma(r)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got != want {
			t.Errorf("decode %d: got %d, want %d", i, got, want)
		}
	}
	if r.Remaining() != 0 {
		t.Errorf("leftover bits: %d", r.Remaining())
	}
	// A Reset reader starts over, on whatever string it is handed.
	r.Reset(AppendGamma(String{}, 7))
	if got, err := ReadGamma(r); err != nil || got != 7 || r.Pos() != GammaLen(7) || r.Remaining() != 0 {
		t.Errorf("after Reset: read %d (%v), pos %d, %d bits left", got, err, r.Pos(), r.Remaining())
	}
}

func TestGammaTruncated(t *testing.T) {
	s := AppendGamma(String{}, 100)
	trunc := s.Prefix(s.Len() - 2)
	if _, err := ReadGamma(NewReader(trunc)); err == nil {
		t.Error("ReadGamma accepted truncated code")
	}
}

// readGammaBitwise and appendGammaBitwise are the bit-at-a-time gamma
// codec ReadGamma and Builder.AppendGamma replaced — kept as the oracle
// the word-at-a-time versions must agree with on value, error-ness and
// reader position (this file and the fuzz targets).
func readGammaBitwise(r *Reader) (uint64, error) {
	zeros := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, fmt.Errorf("bits: truncated gamma code: %w", err)
		}
		if b {
			break
		}
		zeros++
		if zeros >= 64 {
			return 0, fmt.Errorf("bits: gamma code exceeds 64 bits")
		}
	}
	v := uint64(1)
	for i := 0; i < zeros; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, fmt.Errorf("bits: truncated gamma payload: %w", err)
		}
		v <<= 1
		if b {
			v |= 1
		}
	}
	return v, nil
}

func appendGammaBitwise(b *Builder, v uint64) {
	width := bitsLen(v)
	for i := 0; i < width-1; i++ {
		b.AppendBit(false)
	}
	for i := width - 1; i >= 0; i-- {
		b.AppendBit(v>>uint(i)&1 == 1)
	}
}

// checkReadGammaAgrees decodes one code at bit pos of s with both
// decoders and fails on any difference in value, error text or final
// position. It returns the decoders' common verdict.
func checkReadGammaAgrees(t *testing.T, s String, pos int) (uint64, int, error) {
	t.Helper()
	fast, slow := &Reader{s: s, pos: pos}, &Reader{s: s, pos: pos}
	got, gotErr := ReadGamma(fast)
	want, wantErr := readGammaBitwise(slow)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("ReadGamma at bit %d of %s: error %v, bitwise oracle %v", pos, s, gotErr, wantErr)
	}
	if got != want || fast.Pos() != slow.Pos() {
		t.Fatalf("ReadGamma at bit %d of %s: value %d pos %d, bitwise oracle value %d pos %d",
			pos, s, got, fast.Pos(), want, slow.Pos())
	}
	return got, fast.Pos(), gotErr
}

// TestGammaWordwiseMatchesBitwise pins the word-at-a-time codec to the
// oracle where word arithmetic can go wrong: values at 2^k−1 and 2^k
// for every width, codes starting at offsets 60–68 (straddling one or
// two word boundaries), a 64-zero prefix, and truncation at every bit.
func TestGammaWordwiseMatchesBitwise(t *testing.T) {
	var vals []uint64
	for k := 0; k < 64; k++ {
		vals = append(vals, 1<<uint(k), 1<<uint(k)|1<<uint(k)>>1)
		if k > 0 {
			vals = append(vals, 1<<uint(k)-1)
		}
	}
	vals = append(vals, ^uint64(0), 0xdeadbeefcafe, 12345)
	for _, v := range vals {
		for _, lead := range []int{0, 1, 60, 61, 62, 63, 64, 65, 66, 67, 68, 127, 128} {
			var fast, slow Builder
			for i := 0; i < lead; i++ {
				// Alternate so a misplaced OR shows as a flipped bit.
				fast.AppendBit(i%2 == 1)
				slow.AppendBit(i%2 == 1)
			}
			fast.AppendGamma(v)
			appendGammaBitwise(&slow, v)
			// A trailing 1 catches a length that is right over words that
			// are wrong, and a code that runs into its successor.
			fast.AppendBit(true)
			slow.AppendBit(true)
			s := fast.String()
			if !s.Equal(slow.String()) {
				t.Fatalf("AppendGamma(%d) after %d bits: %s, bitwise oracle %s", v, lead, s, slow.String())
			}
			got, pos, err := checkReadGammaAgrees(t, s, lead)
			if err != nil || got != v || pos != lead+GammaLen(v) {
				t.Fatalf("gamma(%d) at bit %d: decoded %d, pos %d, err %v", v, lead, got, pos, err)
			}
			// Truncation at every bit: each proper prefix of the code must
			// fail in both decoders the same way.
			for cut := lead; cut < lead+GammaLen(v); cut++ {
				if _, _, err := checkReadGammaAgrees(t, s.Prefix(cut), lead); err == nil {
					t.Fatalf("gamma(%d) at bit %d cut to %d bits decoded", v, lead, cut-lead)
				}
			}
		}
	}
	// 64 zeros announce a 65-bit value: rejected, wherever the run
	// starts and whether or not a 1 follows.
	for _, lead := range []int{0, 1, 63, 64, 65} {
		for _, tail := range []string{"", "1", "0", "1111"} {
			var b Builder
			for i := 0; i < lead; i++ {
				b.AppendBit(true)
			}
			for i := 0; i < 64; i++ {
				b.AppendBit(false)
			}
			s := b.String().Concat(MustParse(tail))
			if _, _, err := checkReadGammaAgrees(t, s, lead); err == nil || !strings.Contains(err.Error(), "exceeds 64 bits") {
				t.Fatalf("64-zero prefix at bit %d (tail %q): err %v", lead, tail, err)
			}
		}
	}
	// A reused builder must not inherit bits from before Reset.
	var b Builder
	b.AppendGamma(^uint64(0))
	b.Reset()
	b.AppendGamma(1 << 40)
	if want := AppendGamma(String{}, 1<<40); !b.String().Equal(want) {
		t.Fatalf("AppendGamma after Reset: %s, want %s", b.String(), want)
	}
}

// TestReadBitsMatchesBitwise pins ReadBits to a ReadBit loop on value,
// error-ness and final position: widths 0, 1, 63 and 64, reads
// straddling a word boundary, and reads that run past the end.
func TestReadBitsMatchesBitwise(t *testing.T) {
	var b Builder
	for i := 0; i < 150; i++ {
		b.AppendBit(i%3 == 0 || i%7 == 1)
	}
	s := b.String()
	for _, tc := range []struct{ pos, k int }{
		{0, 0}, {0, 1}, {0, 8}, {0, 63}, {0, 64}, {1, 64}, {60, 8}, {64, 64},
		{86, 64}, {100, 50}, {150, 0}, {145, 5},
		{87, 64}, {149, 2}, {150, 1}, {120, 64},
	} {
		fast, slow := &Reader{s: s, pos: tc.pos}, &Reader{s: s, pos: tc.pos}
		got, gotErr := fast.ReadBits(tc.k)
		var want uint64
		var wantErr error
		for i := 0; i < tc.k && wantErr == nil; i++ {
			var bit bool
			bit, wantErr = slow.ReadBit()
			want <<= 1
			if bit {
				want |= 1
			}
		}
		if (gotErr == nil) != (wantErr == nil) || fast.Pos() != slow.Pos() || (gotErr == nil && got != want) {
			t.Fatalf("ReadBits(%d) at bit %d: %#x, pos %d, err %v; ReadBit loop %#x, pos %d, err %v",
				tc.k, tc.pos, got, fast.Pos(), gotErr, want, slow.Pos(), wantErr)
		}
		if past := tc.pos+tc.k > s.Len(); past != (gotErr != nil) {
			t.Fatalf("ReadBits(%d) at bit %d of %d: err %v", tc.k, tc.pos, s.Len(), gotErr)
		}
	}
	for _, k := range []int{-1, 65} {
		if _, err := NewReader(s).ReadBits(k); err == nil {
			t.Fatalf("ReadBits(%d) accepted", k)
		}
	}
}

// quickGammaRoundTrip is the property: gamma codes round-trip for any v >= 1.
func TestQuickGammaRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		v := raw%(1<<32) + 1
		s := AppendGamma(String{}, v)
		got, err := ReadGamma(NewReader(s))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickPrefixConcat checks Concat/Prefix/Suffix coherence.
func TestQuickPrefixConcat(t *testing.T) {
	f := func(a, b []bool) bool {
		sa, sb := FromBools(a), FromBools(b)
		c := sa.Concat(sb)
		return c.Len() == sa.Len()+sb.Len() &&
			c.Prefix(sa.Len()).Equal(sa) &&
			c.Suffix(sa.Len()).Equal(sb) &&
			c.HasPrefix(sa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randomWeights(rng *rand.Rand, n int, max uint64) []uint64 {
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = rng.Uint64()%max + 1
	}
	return ws
}

func TestAlphabeticCodeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(20) + 1
		ws := randomWeights(rng, n, 1000)
		code, err := NewAlphabeticCode(ws)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var total uint64
		for _, w := range ws {
			total += w
		}
		for i := 0; i < n; i++ {
			ci := code.Code(i)
			// Length bound: ceil(log2(W/w)) + 1.
			if got, want := ci.Len(), codeLen(total, ws[i]); got != want {
				t.Errorf("trial %d: len(code[%d]) = %d, want %d", trial, i, got, want)
			}
			for j := i + 1; j < n; j++ {
				cj := code.Code(j)
				// Prefix-free.
				if ci.HasPrefix(cj) || cj.HasPrefix(ci) {
					t.Fatalf("trial %d: codes %d=%q and %d=%q not prefix-free (weights %v)",
						trial, i, ci, j, cj, ws)
				}
				// Alphabetic: order-preserving lexicographic comparison.
				if ci.Compare(cj) >= 0 {
					t.Fatalf("trial %d: code order violated: code[%d]=%q >= code[%d]=%q (weights %v)",
						trial, i, ci, j, cj, ws)
				}
			}
		}
	}
}

func TestAlphabeticDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(15) + 1
		ws := randomWeights(rng, n, 100)
		code, err := NewAlphabeticCode(ws)
		if err != nil {
			t.Fatal(err)
		}
		// Concatenate a random sequence of codewords and decode it back.
		seqLen := rng.Intn(10) + 1
		var s String
		want := make([]int, seqLen)
		for i := range want {
			want[i] = rng.Intn(n)
			s = s.Concat(code.Code(want[i]))
		}
		r := NewReader(s)
		for i, w := range want {
			got, err := code.Decode(r)
			if err != nil {
				t.Fatalf("trial %d: decode %d: %v", trial, i, err)
			}
			if got != w {
				t.Fatalf("trial %d: decode %d: got %d, want %d", trial, i, got, w)
			}
		}
		if r.Remaining() != 0 {
			t.Fatalf("trial %d: %d leftover bits", trial, r.Remaining())
		}
	}
}

func TestAlphabeticCodeErrors(t *testing.T) {
	if _, err := NewAlphabeticCode(nil); err == nil {
		t.Error("accepted empty weights")
	}
	if _, err := NewAlphabeticCode([]uint64{3, 0, 1}); err == nil {
		t.Error("accepted zero weight")
	}
}

func TestAlphabeticSingleton(t *testing.T) {
	code, err := NewAlphabeticCode([]uint64{17})
	if err != nil {
		t.Fatal(err)
	}
	// W == w, so length should be ceil(log2 1) + 1 = 1.
	if got := code.Code(0).Len(); got != 1 {
		t.Errorf("singleton code length = %d, want 1", got)
	}
}

// TestAlphabeticTelescoping verifies the length bound that makes NCA labels
// O(log n): a chain of nested codes (each level half the weight) costs
// O(log W) total bits.
func TestAlphabeticTelescoping(t *testing.T) {
	total := 0
	w := uint64(1 << 20)
	for w > 1 {
		code, err := NewAlphabeticCode([]uint64{w / 2, w / 2})
		if err != nil {
			t.Fatal(err)
		}
		total += code.Code(0).Len()
		w /= 2
	}
	// Each level costs ceil(log2 2)+1 = 2 bits; 20 levels -> 40 bits.
	if total > 40 {
		t.Errorf("telescoped length = %d, want <= 40", total)
	}
}

func BenchmarkAlphabeticCode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ws := randomWeights(rng, 32, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewAlphabeticCode(ws); err != nil {
			b.Fatal(err)
		}
	}
}
