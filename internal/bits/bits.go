// Package bits provides compact bit-level encodings used by the labeling
// schemes of the paper: plain bit strings, Elias-gamma integer codes, and
// Gilbert–Moore alphabetic (order-preserving, prefix-free) codes.
//
// The NCA labeling of Alstrup, Gavoille, Kaplan and Rauhe — used in
// Section V of the paper to identify fundamental cycles with O(log n)
// bits — relies on order-preserving prefix-free codes whose lengths are
// proportional to log(total weight / element weight), so that code lengths
// telescope along root-to-leaf paths. Gilbert–Moore codes provide exactly
// that guarantee: the code of an element with weight w out of total W has
// length at most ceil(log2(W/w)) + 1.
package bits

import (
	"fmt"
	"math/bits"
	"strings"
)

// String is an immutable sequence of bits. The zero value is the empty
// bit string, ready to use.
type String struct {
	words []uint64
	n     int // number of valid bits
}

// FromBools builds a bit string from a slice of booleans (true = 1).
func FromBools(bs []bool) String {
	var s String
	for _, b := range bs {
		s = s.AppendBit(b)
	}
	return s
}

// Parse builds a bit string from a textual form such as "01101".
// It returns an error if the input contains characters other than '0'/'1'.
func Parse(text string) (String, error) {
	var s String
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case '0':
			s = s.AppendBit(false)
		case '1':
			s = s.AppendBit(true)
		default:
			return String{}, fmt.Errorf("bits: invalid character %q at index %d", text[i], i)
		}
	}
	return s, nil
}

// MustParse is like Parse but panics on invalid input. It is intended for
// constants in tests.
func MustParse(text string) String {
	s, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of bits in s.
func (s String) Len() int { return s.n }

// Bit returns the i-th bit (0-indexed from the most significant end of the
// string, i.e. the order in which bits were appended).
func (s String) Bit(i int) bool {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bits: index %d out of range [0,%d)", i, s.n))
	}
	return s.words[i/64]>>(63-uint(i%64))&1 == 1
}

// AppendBit returns a new bit string with b appended.
func (s String) AppendBit(b bool) String {
	words := s.words
	if s.n%64 == 0 {
		// All words full (or empty): copy and grow.
		words = make([]uint64, len(s.words)+1)
		copy(words, s.words)
	} else {
		// Copy-on-write to preserve immutability of the receiver.
		words = make([]uint64, len(s.words))
		copy(words, s.words)
	}
	if b {
		words[s.n/64] |= 1 << (63 - uint(s.n%64))
	}
	return String{words: words, n: s.n + 1}
}

// Concat returns the concatenation s·t.
func (s String) Concat(t String) String {
	out := s
	for i := 0; i < t.n; i++ {
		out = out.AppendBit(t.Bit(i))
	}
	return out
}

// Prefix returns the first k bits of s.
func (s String) Prefix(k int) String {
	if k < 0 || k > s.n {
		panic(fmt.Sprintf("bits: prefix length %d out of range [0,%d]", k, s.n))
	}
	out := String{}
	for i := 0; i < k; i++ {
		out = out.AppendBit(s.Bit(i))
	}
	return out
}

// Suffix returns the bits of s starting at index k.
func (s String) Suffix(k int) String {
	if k < 0 || k > s.n {
		panic(fmt.Sprintf("bits: suffix start %d out of range [0,%d]", k, s.n))
	}
	out := String{}
	for i := k; i < s.n; i++ {
		out = out.AppendBit(s.Bit(i))
	}
	return out
}

// Equal reports whether s and t hold the same bits.
func (s String) Equal(t String) bool {
	if s.n != t.n {
		return false
	}
	for i := 0; i < s.n; i++ {
		if s.Bit(i) != t.Bit(i) {
			return false
		}
	}
	return true
}

// HasPrefix reports whether p is a prefix of s.
func (s String) HasPrefix(p String) bool {
	if p.n > s.n {
		return false
	}
	for i := 0; i < p.n; i++ {
		if s.Bit(i) != p.Bit(i) {
			return false
		}
	}
	return true
}

// CommonPrefixLen returns the length of the longest common prefix of s and t.
func (s String) CommonPrefixLen(t String) int {
	n := s.n
	if t.n < n {
		n = t.n
	}
	for i := 0; i < n; i++ {
		if s.Bit(i) != t.Bit(i) {
			return i
		}
	}
	return n
}

// Compare lexicographically compares s and t as bit strings, treating a
// proper prefix as smaller. It returns -1, 0, or +1.
func (s String) Compare(t String) int {
	n := s.n
	if t.n < n {
		n = t.n
	}
	for i := 0; i < n; i++ {
		sb, tb := s.Bit(i), t.Bit(i)
		if sb != tb {
			if tb {
				return -1
			}
			return 1
		}
	}
	switch {
	case s.n < t.n:
		return -1
	case s.n > t.n:
		return 1
	}
	return 0
}

// String renders the bit string as a sequence of '0'/'1' characters.
func (s String) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		if s.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Reader consumes a bit string from the front. It is used by decoders that
// parse self-delimiting labels without access to the originating tree.
type Reader struct {
	s   String
	pos int
}

// NewReader returns a Reader over s.
func NewReader(s String) *Reader { return &Reader{s: s} }

// Reset points the reader at the front of s, so a decoder on a hot path
// reuses one Reader across frames instead of allocating one per call.
func (r *Reader) Reset(s String) { *r = Reader{s: s} }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.s.Len() - r.pos }

// Pos returns the number of bits consumed so far.
func (r *Reader) Pos() int { return r.pos }

func (r *Reader) errPastEnd() error {
	return fmt.Errorf("bits: read past end of string (len %d)", r.s.Len())
}

// ReadBit consumes and returns one bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.pos >= r.s.Len() {
		return false, r.errPastEnd()
	}
	b := r.s.Bit(r.pos)
	r.pos++
	return b, nil
}

// Skip consumes k bits without materializing them.
func (r *Reader) Skip(k int) error {
	if k < 0 || r.Remaining() < k {
		return fmt.Errorf("bits: cannot skip %d bits, have %d", k, r.Remaining())
	}
	r.pos += k
	return nil
}

// ReadString consumes k bits and returns them as a bit string.
func (r *Reader) ReadString(k int) (String, error) {
	if r.Remaining() < k {
		return String{}, fmt.Errorf("bits: need %d bits, have %d", k, r.Remaining())
	}
	out := r.s.Suffix(r.pos).Prefix(k)
	r.pos += k
	return out, nil
}

// AppendGamma appends the Elias-gamma code of v (v >= 1) to s. The code of
// v uses 2*floor(log2 v)+1 bits: floor(log2 v) zeros followed by the binary
// expansion of v.
func AppendGamma(s String, v uint64) String {
	if v == 0 {
		panic("bits: gamma code requires v >= 1")
	}
	width := bitsLen(v) // number of bits in binary expansion
	for i := 0; i < width-1; i++ {
		s = s.AppendBit(false)
	}
	for i := width - 1; i >= 0; i-- {
		s = s.AppendBit(v>>uint(i)&1 == 1)
	}
	return s
}

// GammaLen returns the length in bits of the Elias-gamma code of v.
func GammaLen(v uint64) int {
	if v == 0 {
		panic("bits: gamma code requires v >= 1")
	}
	return 2*bitsLen(v) - 1
}

// window returns the 64 bits of s starting at bit pos, zero-filled past
// the end. Bits beyond Len are zero in every String (each constructor
// sets valid bits only), so the fill is indistinguishable from them.
func (s String) window(pos int) uint64 {
	w, off := pos/64, uint(pos%64)
	if w >= len(s.words) {
		return 0
	}
	x := s.words[w] << off
	if off > 0 && w+1 < len(s.words) {
		x |= s.words[w+1] >> (64 - off)
	}
	return x
}

// ReadGamma decodes an Elias-gamma code from r: the zero prefix is
// counted and the payload extracted a word at a time, not bit by bit —
// this is the innermost loop of every wire frame decode. On an error
// the reader has consumed what a bit-by-bit decoder would have.
func ReadGamma(r *Reader) (uint64, error) {
	avail := r.Remaining()
	zeros := min(bits.LeadingZeros64(r.s.window(r.pos)), avail)
	switch {
	case zeros >= 64:
		// zeros prefix zeros announce a (zeros+1)-bit payload; 64 zeros
		// would decode a 65-bit value, silently overflowing uint64.
		r.pos += 64
		return 0, fmt.Errorf("bits: gamma code exceeds 64 bits")
	case zeros == avail:
		r.pos += avail
		return 0, fmt.Errorf("bits: truncated gamma code: %w", r.errPastEnd())
	case avail < 2*zeros+1:
		r.pos += avail
		return 0, fmt.Errorf("bits: truncated gamma payload: %w", r.errPastEnd())
	}
	// The terminating 1 and the zeros payload bits after it are the
	// value's binary expansion, zeros+1 bits wide.
	v := r.s.window(r.pos+zeros) >> uint(63-zeros)
	r.pos += 2*zeros + 1
	return v, nil
}

func bitsLen(v uint64) int { return bits.Len64(v) }
