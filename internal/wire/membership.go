package wire

import (
	"fmt"

	"silentspan/internal/bits"
	"silentspan/internal/graph"
)

// Membership frames: the discovery/lifecycle leg of the protocol. Live
// churn needs two control messages beyond heartbeats — a joining node
// announcing itself and a leaving node saying goodbye — and both ride
// the shared header/CRC envelope, so every guarantee it certifies
// (version gate, whole-frame checksum, canonical zero-padding,
// exact-inverse decode) holds for lifecycle traffic too.
//
// KindAdvert payload (after the shared gamma(src), gamma(seq+1)):
//
//	gamma(len(addr)+1)   admin-address byte length; 0 ⇒ no ops plane
//	addr bytes           8 bits each, MSB-first
//	gamma(count+1)       neighbor-digest entry count; 0 ⇒ no digest
//	gamma(id₁)           first neighbor id (ids are positive)
//	gamma(idᵢ−idᵢ₋₁)     remaining ids, strictly-ascending delta code
//
// The digest lists who the advertiser believes its neighbors are.
// Receivers use it as a sanity gate, never as a membership source: a
// node's neighbor rows come from the coordinator's graph alone, so a
// corrupted or forged advert can refresh per-neighbor caches at worst
// — it can never create a phantom member. Seq carries the advertiser's
// opening heartbeat counter (its seq floor), letting receivers pin
// their duplicate filter above any frames a previous incarnation of
// the same id left in flight.
//
// KindLeave carries only the shared src/seq prefix: a goodbye is pure
// identity. Receivers treat it as an eviction hint for the sender's
// cached register, anchor, and resync state; a lost goodbye degrades
// to the staleness TTL, never to wrong state.
const (
	// KindAdvert announces a (re)joining node: identity, admin address,
	// and a digest of the neighbors it was configured with.
	KindAdvert Kind = 5
	// KindLeave is a cooperative goodbye broadcast on Cluster.Leave.
	KindLeave Kind = 6
)

// Decode-side caps: lengths are read before their payload, so a
// corrupted-but-CRC-colliding length must not drive allocation.
const (
	maxAdvertAddr   = 255
	maxAdvertDigest = 1 << 12
)

// appendAdvert writes the advert-specific payload fields.
func appendAdvert(b *bits.Builder, f Frame) error {
	if len(f.AdminAddr) > maxAdvertAddr {
		return fmt.Errorf("wire: advert admin addr %d bytes exceeds %d", len(f.AdminAddr), maxAdvertAddr)
	}
	b.AppendGamma(uint64(len(f.AdminAddr)) + 1)
	for i := 0; i < len(f.AdminAddr); i++ {
		ch := f.AdminAddr[i]
		for bit := 7; bit >= 0; bit-- {
			b.AppendBit(ch>>uint(bit)&1 == 1)
		}
	}
	if len(f.Neighbors) > maxAdvertDigest {
		return fmt.Errorf("wire: advert digest %d entries exceeds %d", len(f.Neighbors), maxAdvertDigest)
	}
	b.AppendGamma(uint64(len(f.Neighbors)) + 1)
	prev := graph.NodeID(0)
	for _, id := range f.Neighbors {
		if id <= prev {
			return fmt.Errorf("wire: advert digest not strictly ascending at %d", id)
		}
		b.AppendGamma(uint64(id - prev))
		prev = id
	}
	return nil
}

// readAdvert parses the advert-specific payload fields into f. The
// delta code makes a decoded digest strictly ascending and positive by
// construction, so accepted adverts re-encode canonically.
func readAdvert(r *bits.Reader, f *Frame) error {
	n1, err := bits.ReadGamma(r)
	if err != nil {
		return fmt.Errorf("%w: advert addr len: %v", ErrPayload, err)
	}
	n := n1 - 1
	if n > maxAdvertAddr {
		return fmt.Errorf("%w: advert addr %d bytes exceeds %d", ErrPayload, n, maxAdvertAddr)
	}
	if n > 0 {
		buf := make([]byte, n)
		for i := range buf {
			ch, err := r.ReadBits(8)
			if err != nil {
				return fmt.Errorf("%w: advert addr: %v", ErrPayload, err)
			}
			buf[i] = byte(ch)
		}
		f.AdminAddr = string(buf)
	}
	k1, err := bits.ReadGamma(r)
	if err != nil {
		return fmt.Errorf("%w: advert digest count: %v", ErrPayload, err)
	}
	k := k1 - 1
	if k > maxAdvertDigest {
		return fmt.Errorf("%w: advert digest %d entries exceeds %d", ErrPayload, k, maxAdvertDigest)
	}
	if k > 0 {
		ids := make([]graph.NodeID, k)
		prev := uint64(0)
		for i := range ids {
			d, err := bits.ReadGamma(r)
			if err != nil {
				return fmt.Errorf("%w: advert digest: %v", ErrPayload, err)
			}
			prev += d
			ids[i] = graph.NodeID(prev)
			if ids[i] < 1 || uint64(ids[i]) != prev {
				return fmt.Errorf("%w: advert digest id overflow", ErrPayload)
			}
		}
		f.Neighbors = ids
	}
	return nil
}
