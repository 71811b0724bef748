package bits

import "fmt"

// Builder is a mutable bit accumulator for encoders on hot paths. The
// immutable String appends with copy-on-write — O(words) per bit, the
// right trade for labels built once and shared — but a wire encoder
// packing thousands of heartbeat frames per tick cannot afford a slice
// copy per bit. A Builder appends in amortized O(1), reuses its backing
// array across Reset, and snapshots into an immutable String (or packed
// bytes) only when the frame is sealed.
type Builder struct {
	words []uint64
	n     int
}

// Len returns the number of bits accumulated.
func (b *Builder) Len() int { return b.n }

// Reset empties the builder, keeping the backing array for reuse.
func (b *Builder) Reset() {
	b.words = b.words[:0]
	b.n = 0
}

// AppendBit appends one bit.
func (b *Builder) AppendBit(bit bool) {
	if b.n%64 == 0 {
		b.words = append(b.words, 0)
	}
	if bit {
		b.words[b.n/64] |= 1 << (63 - uint(b.n%64))
	}
	b.n++
}

// extend appends k zero bits.
func (b *Builder) extend(k int) {
	b.n += k
	for len(b.words)*64 < b.n {
		b.words = append(b.words, 0)
	}
}

// AppendGamma appends the Elias-gamma code of v (v >= 1) — the same
// code AppendGamma produces on a String — as two word operations: the
// zero prefix only advances the length, the binary expansion is OR-ed
// into the (at most two) words it lands in.
func (b *Builder) AppendGamma(v uint64) {
	if v == 0 {
		panic("bits: gamma code requires v >= 1")
	}
	width := bitsLen(v)
	b.extend(width - 1)
	w, room := b.n/64, 64-b.n%64 // v's top bit lands in word w, room bits from its end
	b.extend(width)
	if width <= room {
		b.words[w] |= v << uint(room-width)
	} else {
		b.words[w] |= v >> uint(width-room)
		b.words[w+1] |= v << uint(64-(width-room))
	}
}

// String snapshots the accumulated bits as an immutable String. The
// words are copied, so the builder may be reset and reused freely.
func (b *Builder) String() String {
	words := make([]uint64, len(b.words))
	copy(words, b.words)
	return String{words: words, n: b.n}
}

// AppendBytes appends the accumulated bits to dst as packed bytes,
// MSB-first, the final partial byte zero-padded. It returns the grown
// slice; pair it with FromBytes(data, b.Len()) to recover the bits.
func (b *Builder) AppendBytes(dst []byte) []byte {
	nBytes := (b.n + 7) / 8
	for j := 0; j < nBytes; j++ {
		dst = append(dst, byte(b.words[j/8]>>(56-8*uint(j%8))))
	}
	return dst
}

// Bytes packs the bit string MSB-first into bytes, the final partial
// byte zero-padded: the on-the-wire form of an encoded label.
func (s String) Bytes() []byte {
	out := make([]byte, (s.n+7)/8)
	for j := range out {
		out[j] = byte(s.words[j/8] >> (56 - 8*uint(j%8)))
	}
	return out
}

// FromBytes reconstructs a bit string of exactly nbits from its packed
// byte form. It rejects inputs whose length disagrees with nbits or
// whose zero-padding carries set bits, so a corrupted length field
// cannot smuggle silent extra state past a decoder.
func FromBytes(data []byte, nbits int) (String, error) {
	s, _, err := FromBytesBuf(nil, data, nbits)
	return s, err
}

// FromBytesBuf is FromBytes with a caller-provided scratch word slice:
// the returned String aliases buf (grown when too small, and returned
// for the next call), so a decoder on a hot path reuses one buffer
// across frames instead of allocating per call. The String — and
// anything still referencing its bits — is invalidated by the next
// FromBytesBuf call with the same buffer.
func FromBytesBuf(buf []uint64, data []byte, nbits int) (String, []uint64, error) {
	if nbits < 0 {
		return String{}, buf, fmt.Errorf("bits: negative bit count %d", nbits)
	}
	if want := (nbits + 7) / 8; len(data) != want {
		return String{}, buf, fmt.Errorf("bits: %d bytes for %d bits, want %d", len(data), nbits, want)
	}
	if pad := len(data)*8 - nbits; pad > 0 && data[len(data)-1]&(1<<uint(pad)-1) != 0 {
		return String{}, buf, fmt.Errorf("bits: nonzero padding in final byte")
	}
	nw := (nbits + 63) / 64
	if cap(buf) < nw {
		buf = make([]uint64, nw)
	} else {
		buf = buf[:nw]
		for i := range buf {
			buf[i] = 0
		}
	}
	for j, by := range data {
		buf[j/8] |= uint64(by) << (56 - 8*uint(j%8))
	}
	return String{words: buf, n: nbits}, buf, nil
}
