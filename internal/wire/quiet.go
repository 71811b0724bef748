package wire

import (
	"silentspan/internal/bits"
)

// QuietReport is the termination-detector block piggybacked on every
// heartbeat frame (KindDelta, self-contained or not).
// The cluster's Dijkstra–Scholten-style detector convergecasts
// subtree-quiet claims up the constructed tree and floods the root's
// announcement back down, all in-band: no extra frame kind, no extra
// cadence — silence detection rides the keep-alives that silence
// already pays for.
//
// Payload encoding (appended in this order):
//
//	gamma(epoch+1)  sender's write epoch — a Lamport clock over
//	                register writes and membership events
//	bit(sub)        "my whole subtree is quiet at this epoch"
//	gamma(count+1)  nodes covered by the subtree claim
//	gamma(ann+1)    announced epoch flooding down from the root;
//	                0 ⇒ no active announcement
//
// A zero-valued report costs 4 bits, so quiet-path keep-alives stay
// within their size budget. The block sits before any register state
// in the payload, so it decodes even from a non-self-contained delta
// whose body must be parked for ApplyDelta.
type QuietReport struct {
	// Epoch is the sender's monotone write epoch. Every local register
	// write and every membership event bumps it; receivers join it into
	// their own clock, so any change anywhere eventually dominates every
	// stale quiet claim.
	Epoch uint64
	// Sub claims the sender's entire subtree has been quiet at Epoch.
	Sub bool
	// Count is the number of nodes the Sub claim covers (the sender
	// plus its fresh children's counts). The root announces only when
	// its count equals the cluster size — the fragment guard that stops
	// a partitioned subtree from announcing for everyone.
	Count uint64
	// Ann is the epoch the root announced cluster-wide quiet at, or 0
	// when no announcement is active. It floods down the tree; a node
	// forwards it only while its own epoch still matches, so one write
	// anywhere retracts the announcement on the next cadence.
	Ann uint64
}

// appendQuiet encodes the report into the payload under construction.
func appendQuiet(b *bits.Builder, q QuietReport) {
	b.AppendGamma(q.Epoch + 1)
	b.AppendBit(q.Sub)
	b.AppendGamma(q.Count + 1)
	b.AppendGamma(q.Ann + 1)
}

// readQuiet decodes the report; the exact inverse of appendQuiet.
func readQuiet(r *bits.Reader) (QuietReport, error) {
	var q QuietReport
	e, err := bits.ReadGamma(r)
	if err != nil {
		return q, err
	}
	q.Epoch = e - 1
	q.Sub, err = r.ReadBit()
	if err != nil {
		return q, err
	}
	n, err := bits.ReadGamma(r)
	if err != nil {
		return q, err
	}
	q.Count = n - 1
	a, err := bits.ReadGamma(r)
	if err != nil {
		return q, err
	}
	q.Ann = a - 1
	return q, nil
}
