package routing

import (
	"testing"

	"silentspan/internal/bits"
	"silentspan/internal/graph"
)

// coordsFromBytes derives a port path from fuzz input: consecutive byte
// pairs become 16-bit ports, covering the full Port range.
func coordsFromBytes(data []byte) Coords {
	c := make(Coords, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		c = append(c, Port(uint16(data[i])<<8|uint16(data[i+1])))
	}
	return c
}

// bitsFromBytes expands data into a bit string, MSB first per byte.
func bitsFromBytes(data []byte) bits.String {
	var s bits.String
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			s = s.AppendBit(b>>uint(i)&1 == 1)
		}
	}
	return s
}

// FuzzCoordsRoundtrip checks Encode→DecodeCoords identity for arbitrary
// port paths, including ports at the uint16 extremes.
func FuzzCoordsRoundtrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0x00, 0x01})
	f.Add([]byte{0x00, 0x03, 0x00, 0x00, 0x7f, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("cap path length")
		}
		c := coordsFromBytes(data)
		enc := c.Encode()
		if enc.Len() != c.EncodedBits() {
			t.Fatalf("Encode has %d bits, EncodedBits says %d", enc.Len(), c.EncodedBits())
		}
		r := bits.NewReader(enc)
		got, err := DecodeCoords(r)
		if err != nil {
			t.Fatalf("DecodeCoords(Encode(%v)): %v", c, err)
		}
		if !got.Equal(c) {
			t.Fatalf("roundtrip: got %v, want %v", got, c)
		}
		if r.Remaining() != 0 {
			t.Fatalf("roundtrip left %d bits unread", r.Remaining())
		}
	})
}

// FuzzDecodeCoords feeds DecodeCoords arbitrary bit streams: it must
// never panic or over-allocate, and whenever it accepts an input the
// decoded coordinate must re-encode to exactly the consumed prefix.
func FuzzDecodeCoords(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80})                                           // length 1: empty coordinate
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}) // huge length claim
	f.Add([]byte{0x26, 0x80})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("cap input length")
		}
		r := bits.NewReader(bitsFromBytes(data))
		c, err := DecodeCoords(r)
		if err != nil {
			return
		}
		re := c.Encode()
		if re.Len() != r.Pos() {
			t.Fatalf("decoded %v from %d bits, re-encodes to %d", c, r.Pos(), re.Len())
		}
		if !bitsFromBytes(data).Prefix(r.Pos()).Equal(re) {
			t.Fatalf("re-encoding %v does not reproduce the consumed prefix", c)
		}
	})
}

// treeNeighbors is the tree-edge oracle the router's TreeOnly mode once
// called per neighbor: one path extends the other by exactly one port.
func treeNeighbors(a, b Coords) bool {
	if len(a) == len(b)+1 {
		a, b = b, a
	} else if len(b) != len(a)+1 {
		return false
	}
	return a.IsAncestorOf(b)
}

// packCoords labels each coordinate in a fresh labeling through the
// writers the labelers use — a root, then one child per port — and
// returns the index of each coordinate's last record.
func packCoords(cs ...Coords) (*Labeling, []int) {
	total := 0
	for _, c := range cs {
		total += len(c) + 1
	}
	l := newLabeling(make([]graph.NodeID, total))
	var at []int
	i := 0
	for _, c := range cs {
		l.setRoot(i, 1)
		for _, p := range c {
			l.place(i+1, i)
			l.writePorts(i+1, i, p)
			i++
		}
		at = append(at, i)
		i++
	}
	return l, at
}

// labelPaths derives two port paths of 0–24 ports from fuzz input: a
// shared prefix, then each path's own tail, with the last ports of
// either tail forced to port 0 (zero padding must not read as a match).
func labelPaths(data []byte) (Coords, Coords) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	shared := int(next()) % 25
	la, lb := shared+int(next())%(25-shared), shared+int(next())%(25-shared)
	zeros := next()
	port := func() Port { return Port(next())<<8 | Port(next()) }
	a, b := make(Coords, la), make(Coords, lb)
	for k := 0; k < shared; k++ {
		a[k] = port()
		b[k] = a[k]
	}
	for k := shared; k < la; k++ {
		a[k] = port()
	}
	for k := shared; k < lb; k++ {
		b[k] = port()
	}
	for k := max(shared, la-int(zeros&0xf)); k < la; k++ {
		a[k] = 0
	}
	for k := max(shared, lb-int(zeros>>4)); k < lb; k++ {
		b[k] = 0
	}
	return a, b
}

// FuzzLabelDist checks the packed distance kernel against Coords.Dist,
// and dist == 1 against the tree-edge oracle, over path pairs on both
// sides of the eight inline ports.
func FuzzLabelDist(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 0x00, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5})
	f.Add([]byte{8, 4, 4, 0xff})
	f.Add([]byte{12, 9, 1, 0x21, 0xff, 0xff, 0, 0, 0x80, 1})
	f.Add([]byte{24, 0, 0, 0x00, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{7, 1, 2, 0x10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := labelPaths(data)
		l, at := packCoords(a, b)
		ra, rb := &l.recs[at[0]], &l.recs[at[1]]
		if got := l.coordsAt(at[0]); !got.Equal(a) {
			t.Fatalf("packed %v reads back as %v", a, got)
		}
		want := a.Dist(b)
		if got := l.dist(ra, rb); got != want {
			t.Fatalf("dist(%v, %v) = %d, Coords.Dist %d", a, b, got, want)
		}
		if got := l.dist(rb, ra); got != want {
			t.Fatalf("dist(%v, %v) = %d, Coords.Dist %d", b, a, got, want)
		}
		if got, want := l.dist(ra, rb) == 1, treeNeighbors(a, b); got != want {
			t.Fatalf("dist(%v, %v) == 1 is %v, tree-edge oracle %v", a, b, got, want)
		}
	})
}
