// Package wire is the cluster's wire protocol: it serializes a node's
// register state into versioned, checksummed heartbeat frames, and
// routed packets into data frames, so the locally-shared-memory model
// of the paper (Section II-A) can be realized over real links.
//
// The classic shared-memory→message-passing transform has every node
// periodically broadcast its register content to its neighbors; each
// neighbor caches the last received state and evaluates its transition
// function against the cache instead of an atomic register read. The
// transform preserves silence (once registers stop changing, only
// constant-size keep-alive heartbeats flow) and the Θ(log n) space
// bound of the paper: a frame carries one register, encoded with the
// Elias-gamma codes of internal/bits, so the frame size tracks the
// register size within a constant envelope.
//
// Every frame kind shares one layout (byte offsets):
//
//	0  magic 0xA7 (1 byte)
//	1  version<<4 | kind (1)
//	2  alg: register codec code (1; 0 for data frames)
//	3  payload (gamma-coded fields, zero-padded to a byte boundary)
//	.. crc32-IEEE of everything above (4, big-endian)
//
// There is no fixed src/seq/length envelope: every payload opens with
// gamma(src), gamma(seq+1), and the kind-specific fields follow (data
// frames below; delta/resync in delta.go; advert/leave in
// membership.go). The payload is self-delimiting.
//
// KindData payload (after the shared prefix), each field zig-zag
// gamma-coded:
//
//	packet id, origin, destination, hop count
//
// Decode rejects bad magic, unknown versions and kinds, ≥8 trailing
// payload bits, any set padding bit — so decode remains the exact
// inverse of encode — and, the fault class the cluster's
// byte-corrupting transport exercises, any frame whose checksum does
// not match: a single flipped bit anywhere in the frame is always
// caught.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"silentspan/internal/bits"
	"silentspan/internal/graph"
	"silentspan/internal/runtime"
)

// Version is the current frame format version.
const Version = 1

// magic opens every frame; headerLen and trailerLen frame the payload.
const (
	magic      = 0xA7
	headerLen  = 3
	trailerLen = 4
)

// Kind classifies a frame.
type Kind uint8

// The frame kinds.
const (
	// Kind 1 is reserved and rejected: it named a retired frame format,
	// and kind numbers are never reused.

	// KindData carries one routed packet hop.
	KindData Kind = 2
)

// Decode failure classes, distinguishable with errors.Is so transport
// stats can attribute drops.
var (
	ErrTruncated = errors.New("wire: truncated frame")
	ErrMagic     = errors.New("wire: bad magic")
	ErrVersion   = errors.New("wire: unsupported version")
	ErrKind      = errors.New("wire: unknown frame kind")
	ErrChecksum  = errors.New("wire: checksum mismatch")
	ErrPayload   = errors.New("wire: corrupt payload")
)

// Packet is the data-plane payload: one routed packet identified by the
// gateway's ID, between its endpoints, carrying its hop count.
type Packet struct {
	ID          uint64
	Origin, Dst graph.NodeID
	Hops        int
}

// Frame is one decoded wire frame.
type Frame struct {
	Kind Kind
	// Alg is the register codec code the payload was encoded with
	// (heartbeats; zero for data frames). Receivers reject frames from a
	// codec other than their own — a cluster misconfiguration guard.
	Alg uint8
	// Src is the sending node.
	Src graph.NodeID
	// Seq is the sender's monotone counter: receivers drop duplicated
	// and reordered-stale heartbeats by accepting only fresher values.
	Seq uint64
	// State is the heartbeat register content; nil encodes an empty
	// register (a node that has not booted its algorithm yet).
	State runtime.State
	// Data is the packet of a data frame.
	Data Packet
	// BaseSeq is a delta frame's anchor (KindDelta): the seq of the
	// self-contained frame the payload is encoded against. BaseSeq ==
	// Seq marks a self-contained frame.
	BaseSeq uint64
	// Base is the encode-side anchor register for a delta frame with
	// BaseSeq < Seq. Decode leaves it nil: the receiver supplies its own
	// cached anchor to ApplyDelta.
	Base runtime.State
	// Q is the termination-detector report carried by heartbeat frames
	// (KindDelta): write epoch, subtree-quiet claim with coverage count,
	// and the root's announced epoch.
	Q QuietReport
	// AdminAddr is an advert's ops-plane address (KindAdvert); empty
	// when the advertiser runs no admin server.
	AdminAddr string
	// Neighbors is an advert's neighbor digest (KindAdvert): the
	// strictly-ascending ids the advertiser was configured with.
	Neighbors []graph.NodeID
	// delta parks the undecoded payload of a received delta frame with
	// BaseSeq < Seq, positioned at deltaOff for ApplyDelta.
	delta    bits.String
	deltaOff int
}

// Encode appends the frame's wire form to dst and returns the grown
// slice. The builder is scratch for the payload encoding: it is Reset
// here and may be reused across calls, so a steady-state sender
// allocates only what dst needs to grow. For deltas with BaseSeq < Seq,
// f.Base must hold the anchor register the receiver is assumed to cache
// and f.State the current register.
func Encode(f Frame, c Codec, b *bits.Builder, dst []byte) ([]byte, error) {
	if f.Src < 1 {
		return dst, fmt.Errorf("wire: frame from non-positive node %d", f.Src)
	}
	if f.Seq == ^uint64(0) {
		return dst, fmt.Errorf("wire: seq %d not encodable", f.Seq)
	}
	b.Reset()
	b.AppendGamma(uint64(f.Src))
	b.AppendGamma(f.Seq + 1)
	switch f.Kind {
	case KindData:
		for _, v := range []int64{int64(f.Data.ID), int64(f.Data.Origin), int64(f.Data.Dst), int64(f.Data.Hops)} {
			if err := appendInt(b, v); err != nil {
				return dst, err
			}
		}
	case KindDelta:
		if err := appendDelta(b, f, c); err != nil {
			return dst, err
		}
	case KindResync, KindLeave:
	case KindAdvert:
		if err := appendAdvert(b, f); err != nil {
			return dst, err
		}
	default:
		return dst, fmt.Errorf("%w: %d", ErrKind, f.Kind)
	}
	base := len(dst)
	dst = append(dst, magic, byte(Version<<4)|byte(f.Kind), f.Alg)
	dst = b.AppendBytes(dst)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[base:])), nil
}

// Decode parses one frame. The codec decodes heartbeat payloads; it is
// unused for data frames. Every reject path returns a wrapped sentinel
// error (ErrTruncated, ErrMagic, ErrVersion, ErrKind, ErrChecksum,
// ErrPayload).
func Decode(c Codec, data []byte) (Frame, error) {
	f, _, err := DecodeBuf(c, data, nil)
	return f, err
}

// DecodeBuf is Decode with a reusable scratch word slice backing the
// payload bit string, so a steady-state receiver decodes without heap
// allocation. The grown scratch is returned for the next call. Decoded
// registers are value copies and outlive the buffer, but a delta
// frame's parked payload aliases it: ApplyDelta before the next
// DecodeBuf call with the same buffer.
func DecodeBuf(c Codec, data []byte, scratch []uint64) (Frame, []uint64, error) {
	var f Frame
	if len(data) < headerLen+trailerLen {
		return f, scratch, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if data[0] != magic {
		return f, scratch, ErrMagic
	}
	if data[1]>>4 != Version {
		return f, scratch, fmt.Errorf("%w: %d", ErrVersion, data[1]>>4)
	}
	f.Kind = Kind(data[1] & 0xf)
	if f.Kind < KindData || f.Kind > KindLeave {
		return f, scratch, fmt.Errorf("%w: %d", ErrKind, data[1]&0xf)
	}
	f.Alg = data[2]
	sum := binary.BigEndian.Uint32(data[len(data)-trailerLen:])
	if crc32.ChecksumIEEE(data[:len(data)-trailerLen]) != sum {
		return f, scratch, ErrChecksum
	}
	pay := data[headerLen : len(data)-trailerLen]
	s, scratch, err := bits.FromBytesBuf(scratch, pay, len(pay)*8)
	if err != nil {
		return f, scratch, fmt.Errorf("%w: %v", ErrPayload, err)
	}
	r := getReader(s)
	err = decodePayload(r, s, &f, c)
	putReader(r)
	return f, scratch, err
}

// readers recycles the bit readers DecodeBuf and ApplyDelta parse with:
// a Reader handed to a Codec method escapes to the heap, which was one
// allocation per frame in each of the two. A reader goes back empty, so
// the pool never pins a caller's scratch buffer.
var readers = sync.Pool{New: func() any { return new(bits.Reader) }}

func getReader(s bits.String) *bits.Reader {
	r := readers.Get().(*bits.Reader)
	r.Reset(s)
	return r
}

func putReader(r *bits.Reader) {
	r.Reset(bits.String{})
	readers.Put(r)
}

// decodePayload parses the payload bit string s, read through r, into
// f, whose Kind the header already fixed.
func decodePayload(r *bits.Reader, s bits.String, f *Frame, c Codec) error {
	src, err := bits.ReadGamma(r)
	if err != nil {
		return fmt.Errorf("%w: src: %v", ErrPayload, err)
	}
	f.Src = graph.NodeID(src)
	if f.Src < 1 {
		return fmt.Errorf("%w: non-positive src %d", ErrPayload, f.Src)
	}
	seq1, err := bits.ReadGamma(r)
	if err != nil {
		return fmt.Errorf("%w: seq: %v", ErrPayload, err)
	}
	f.Seq = seq1 - 1
	switch f.Kind {
	case KindData:
		var fields [4]int64
		for i := range fields {
			v, err := readInt(r)
			if err != nil {
				return fmt.Errorf("%w: data field %d: %v", ErrPayload, i, err)
			}
			fields[i] = v
		}
		f.Data = Packet{
			ID:     uint64(fields[0]),
			Origin: graph.NodeID(fields[1]),
			Dst:    graph.NodeID(fields[2]),
			Hops:   int(fields[3]),
		}
	case KindDelta:
		if err := readDelta(r, f, c); err != nil {
			return err
		}
		if f.BaseSeq < f.Seq {
			// Delta application needs the receiver's anchor register;
			// park the undecoded remainder for ApplyDelta. Padding
			// canonicality is checked there — the frame cannot be
			// validated further without the base. The parked string
			// aliases scratch: apply the delta before the next
			// DecodeBuf call with the same buffer.
			f.delta, f.deltaOff = s, r.Pos()
			return nil
		}
	case KindAdvert:
		if err := readAdvert(r, f); err != nil {
			return err
		}
	case KindResync, KindLeave:
	}
	return checkPadding(r)
}

// checkPadding enforces canonical zero-padding: whatever follows the
// last field must be under one byte of zero bits.
func checkPadding(r *bits.Reader) error {
	if r.Remaining() >= 8 {
		return fmt.Errorf("%w: %d trailing payload bits", ErrPayload, r.Remaining())
	}
	for r.Remaining() > 0 {
		b, err := r.ReadBit()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrPayload, err)
		}
		if b {
			return fmt.Errorf("%w: nonzero padding", ErrPayload)
		}
	}
	return nil
}
