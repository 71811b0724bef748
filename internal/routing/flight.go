package routing

// Flight is a cohort of in-flight packets tracked across labeling
// refreshes: the accounting unit of the fault-interplay runner and the
// chaos campaigns, where packets launched before a fault burst keep
// flying over the decaying labeling while the tree repairs itself.
type Flight struct {
	packets []*Packet
	stats   InFlightStats
	flushed bool
}

// NewFlight launches one packet per pair.
func NewFlight(pairs []Pair) *Flight {
	f := &Flight{packets: make([]*Packet, 0, len(pairs))}
	for _, p := range pairs {
		f.packets = append(f.packets, NewPacket(p.Src, p.Dst))
	}
	f.stats.Sent = len(f.packets)
	return f
}

// Advance moves every live packet up to steps hops over r's current
// labeling, accounting deliveries-during-repair and stall windows.
func (f *Flight) Advance(r *Router, steps int) {
	for _, p := range f.packets {
		if p.Done {
			continue
		}
		before := p.Stalls
		r.Advance(p, steps)
		if p.Done && p.Delivered {
			f.stats.DeliveredDuring++
		}
		f.stats.StallWindows += p.Stalls - before
	}
}

// Flush drains the cohort over r's (typically freshly relabeled)
// routing table with a full hop budget and finalizes the loop/drop
// classification. Idempotent.
func (f *Flight) Flush(r *Router) {
	if f.flushed {
		return
	}
	f.flushed = true
	delivered := 0
	for _, p := range f.packets {
		if !p.Done {
			r.Advance(p, r.opt.MaxHops)
		}
		if p.Looped {
			f.stats.Looped++
		}
		if p.Delivered {
			delivered++
		} else {
			f.stats.Dropped++
		}
	}
	f.stats.DeliveredAfter = delivered - f.stats.DeliveredDuring
}

// Stats returns the cohort's accounting (complete only after Flush).
func (f *Flight) Stats() InFlightStats { return f.stats }
