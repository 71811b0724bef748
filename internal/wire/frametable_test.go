package wire

// The frame table pins the register codecs' wire form: for each codec,
// over ten thousand registers — sampleStates' edge cases plus
// ArbitraryState draws over random views — it records the anchor
// frame, a delta against a random base and against the previous
// register, the keep-alive, EncodedBits and String. A sha256 per block
// of blocksize records and over the whole stream is committed, with the
// first headRecords records in full, so a mismatch names the register
// (or, past the head, its block). Regenerate with:
//
//	go test ./internal/wire -run TestFrameTable -update
//
// and review the diff: a changed byte is a wire format change, and a
// node running the old code would reject or misread the new frames.

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"silentspan/internal/bits"
	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
	"silentspan/internal/switching"
)

var updateTable = flag.Bool("update", false, "rewrite testdata/frametable.txt")

const (
	tableDraws  = 10000 // ArbitraryState draws per codec
	headRecords = 256
	blocksize   = 256
)

// tableRegisters returns the registers the table covers for c: the
// sampleStates edge cases, then tableDraws ArbitraryState draws of alg
// over random views (sizes from 2 to 2^16, up to 8 neighbors).
func tableRegisters(c Codec, alg runtime.Algorithm, rng *rand.Rand) []runtime.State {
	regs := sampleStates(c, rng)
	for i := 0; i < tableDraws; i++ {
		n := 2 + rng.Intn(1<<rng.Intn(17))
		id := graph.NodeID(1 + rng.Intn(n))
		var nbrs []graph.NodeID
		for k := rng.Intn(min(n-1, 8) + 1); k > 0; k-- {
			if u := graph.NodeID(1 + rng.Intn(n)); u != id {
				nbrs = append(nbrs, u)
			}
		}
		slices.Sort(nbrs)
		nbrs = slices.Compact(nbrs)
		v := runtime.NewView(id, n, nbrs, make([]graph.Weight, len(nbrs)), nil, make([]runtime.State, len(nbrs)))
		regs = append(regs, alg.ArbitraryState(rng, v))
	}
	return regs
}

// tableLines renders one line per register of c and checks that every
// frame it records decodes back to the register it carries.
func tableLines(t *testing.T, c Codec, alg runtime.Algorithm, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	regs := tableRegisters(c, alg, rng)
	var b bits.Builder
	encode := func(f Frame) []byte {
		f.Kind, f.Alg = KindDelta, c.Code()
		data, err := Encode(f, c, &b, nil)
		if err != nil {
			t.Fatalf("%s: encode %v: %v", c.Name(), f.State, err)
		}
		return data
	}
	delta := func(src graph.NodeID, seq uint64, base, cur runtime.State) []byte {
		data := encode(Frame{Src: src, Seq: seq, BaseSeq: seq - 1, Base: base, State: cur})
		f, err := Decode(c, data)
		if err != nil {
			t.Fatalf("%s: decode delta %x: %v", c.Name(), data, err)
		}
		if got, err := ApplyDelta(c, f, base); err != nil || !got.Equal(cur) {
			t.Fatalf("%s: delta %v→%v applied to %v, %v", c.Name(), base, cur, got, err)
		}
		return data
	}
	lines := make([]string, len(regs))
	for i, s := range regs {
		src := graph.NodeID(1 + rng.Intn(1<<rng.Intn(24)))
		seq := 1 + uint64(rng.Int63n(1<<rng.Intn(40)))
		anchor := encode(Frame{Src: src, Seq: seq, BaseSeq: seq, State: s})
		if f, err := Decode(c, anchor); err != nil || !f.State.Equal(s) {
			t.Fatalf("%s: anchor of %v decoded to %v, %v", c.Name(), s, f.State, err)
		}
		prev := regs[(i+len(regs)-1)%len(regs)]
		lines[i] = fmt.Sprintf("%s %d anchor=%x rand=%x prev=%x keep=%x bits=%d %s",
			c.Name(), i, anchor,
			delta(src, seq, regs[rng.Intn(len(regs))], s),
			delta(src, seq, prev, s),
			delta(src, seq, s, s),
			s.EncodedBits(), s)
	}
	return lines
}

// tableFile renders the committed form: per codec, the whole-stream
// and per-block hashes, then the head records in full.
func tableFile(t *testing.T) []string {
	out := []string{"# go test ./internal/wire -run TestFrameTable -update"}
	var heads []string
	for i, tc := range []struct {
		c   Codec
		alg runtime.Algorithm
	}{
		{Spanning{}, spanning.Algorithm{}},
		{Switching{}, switching.Algorithm{}},
	} {
		lines := tableLines(t, tc.c, tc.alg, int64(31+i))
		sum := func(ls []string) string {
			return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(ls, "\n")+"\n")))
		}
		out = append(out, fmt.Sprintf("%s records=%d sha256=%s", tc.c.Name(), len(lines), sum(lines)))
		for lo := 0; lo < len(lines); lo += blocksize {
			hi := min(lo+blocksize, len(lines))
			out = append(out, fmt.Sprintf("%s block %d-%d sha256=%s", tc.c.Name(), lo, hi-1, sum(lines[lo:hi])))
		}
		heads = append(heads, lines[:headRecords]...)
	}
	return append(out, heads...)
}

// TestFrameTable: the codecs reproduce the committed frame table byte
// for byte — anchors, deltas, keep-alives, EncodedBits and String.
func TestFrameTable(t *testing.T) {
	got := tableFile(t)
	path := filepath.Join("testdata", "frametable.txt")
	if *updateTable {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(bytes.TrimSuffix(raw, []byte("\n"))), "\n")
	for i := range max(len(got), len(want)) {
		g, w := "<none>", "<none>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("frame table line %d differs:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
