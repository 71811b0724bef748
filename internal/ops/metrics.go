// Package ops is the operations plane of the cluster runtime: the eyes
// and hands an operator gets on a *running* deployment of the paper's
// silent algorithms, without the coordinator's god's-eye view the model
// forbids.
//
// Three pieces, deliberately dependency-free (stdlib only):
//
//   - a metrics registry (metrics.go): Prometheus-text-format counters,
//     gauges, and histograms, cheap enough to thread through the
//     cluster's hot paths. Silence — the paper's headline property — is
//     exactly what a metrics layer makes visible: register writes and
//     frame counters go flat when the system stabilizes.
//   - a per-node admin API (admin.go): getself / getpeers / gettree /
//     getstats as JSON over a local loopback HTTP socket per node
//     (yggdrasil's src/admin is the exemplar), plus an in-process Hub
//     for tests and certification.
//   - a topology crawler (crawl.go): reconstructs the global tree by
//     walking the live cluster hop-by-hop through the admin API alone —
//     the first component that observes the system the way a real
//     operator would, with no access to the coordinator's mirror.
package ops

import (
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels are constant key=value pairs attached to a metric at
// registration. Rendered sorted by key, so exposition is deterministic.
type Labels map[string]string

func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := slices.Sorted(maps.Keys(l))
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", k, escapeLabel(l[k]))
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, double-quote, and line-feed become \\, \", and \n. (Go's
// %q is close but not conformant — it also escapes non-ASCII and
// control bytes with Go-only sequences like \xNN that Prometheus
// parsers reject.)
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes HELP text per the text format: only backslash and
// line-feed (quotes are legal there).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// collector is one registered metric instance (a single label set of a
// family). expose writes exposition lines; sample fills the snapshot.
type collector interface {
	expose(w io.Writer, name string)
	sample(into map[string]float64, name string)
}

// family groups every instance sharing a metric name under one
// HELP/TYPE pair, as the text format requires.
type family struct {
	name, help, typ string
	instances       []collector
	labelSets       map[string]bool
}

// Registry holds metrics and renders them in the Prometheus text
// exposition format. All value updates are atomic: scraping a registry
// while the cluster's hot paths increment it is race-free by
// construction.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register attaches one instance to its family, enforcing consistent
// HELP/TYPE and unique label sets per name.
func (r *Registry) register(name, help, typ string, labels Labels, c collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, labelSets: make(map[string]bool)}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("ops: metric %s re-registered as %s (was %s)", name, typ, f.typ))
	}
	ls := labels.render()
	if f.labelSets[ls] {
		panic(fmt.Sprintf("ops: duplicate metric %s%s", name, ls))
	}
	f.labelSets[ls] = true
	f.instances = append(f.instances, c)
}

// Gauge is a settable integer metric. Updates are atomic.
type Gauge struct {
	labels string
	v      atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) expose(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %d\n", name, g.labels, g.v.Load())
}

func (g *Gauge) sample(into map[string]float64, name string) {
	into[name+g.labels] = float64(g.v.Load())
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{labels: labels.render()}
	r.register(name, help, "gauge", labels, g)
	return g
}

// funcMetric reads its value at scrape time — the seam for exposing
// state that already has its own synchronized home (transport stats
// under a mutex, per-node atomic counters summed on demand) without
// double-counting increments through the hot path.
type funcMetric struct {
	labels string
	fn     func() float64
}

func (m *funcMetric) expose(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %s\n", name, m.labels, formatValue(m.fn()))
}

func (m *funcMetric) sample(into map[string]float64, name string) {
	into[name+m.labels] = m.fn()
}

// CounterFunc registers a counter whose value is read by fn at scrape
// time. fn must be safe to call from any goroutine.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, "counter", labels, &funcMetric{labels: labels.render(), fn: fn})
}

// GaugeFunc registers a gauge whose value is read by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, "gauge", labels, &funcMetric{labels: labels.render(), fn: fn})
}

// Histogram is a fixed-bucket histogram with atomic updates.
type Histogram struct {
	labels  string
	bounds  []float64 // ascending upper bounds; +Inf implicit
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.counts[len(h.bounds)].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// bucketLabels merges the le label into the instance labels.
func (h *Histogram) bucketLabels(le string) string {
	if h.labels == "" {
		return `{le="` + escapeLabel(le) + `"}`
	}
	return h.labels[:len(h.labels)-1] + `,le="` + escapeLabel(le) + `"}`
}

func (h *Histogram) expose(w io.Writer, name string) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, h.bucketLabels(formatValue(b)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, h.bucketLabels("+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, h.labels, formatValue(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, h.labels, h.count.Load())
}

func (h *Histogram) sample(into map[string]float64, name string) {
	into[name+"_count"+h.labels] = float64(h.count.Load())
	into[name+"_sum"+h.labels] = h.Sum()
}

// Histogram registers and returns a histogram over the given ascending
// upper bucket bounds (a +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("ops: histogram %s bounds not ascending: %v", name, bounds))
	}
	h := &Histogram{labels: labels.render(), bounds: slices.Clone(bounds)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	r.register(name, help, "histogram", labels, h)
	return h
}

// formatValue renders a float the way Prometheus expects (integers
// without a trailing .0, +Inf spelled out).
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// WritePrometheus renders every registered metric in the text
// exposition format, families in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, c := range f.instances {
			c.expose(w, f.name)
		}
	}
}

// Snapshot returns every metric as name{labels} → value — the struct-
// free scrape for benches and tests. Histograms contribute _count and
// _sum entries.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for _, name := range r.order {
		f := r.families[name]
		for _, c := range f.instances {
			c.sample(out, f.name)
		}
	}
	return out
}

// Handler serves the registry at any path — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
