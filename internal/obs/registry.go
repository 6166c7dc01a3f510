// Package obs is the zero-dependency observability layer: a
// concurrency-safe instrument registry (counters, gauges, auto-ranging
// quantile histograms, and labeled instrument vectors), a
// probe-lifecycle tracer emitting structured span events with an
// in-process subscription fanout, an HTTP scrape surface
// (Serve), and a QoS drift monitor comparing per-session observed
// gauges against their Eq. 3 requirements.
//
// Both halves are nil-safe: a nil *Registry hands out nil instruments,
// and every operation on a nil instrument or nil *Tracer is a no-op
// costing one pointer check. Hot paths therefore thread instruments
// unconditionally and pay nothing when observability is disabled.
//
// The registry's instruments are backed by sync/atomic operations so a
// single instance can be shared across the goroutine-per-node
// dist.Cluster without locks on the update path.
package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotone atomic event counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value instrument.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the gauge's current value. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last set value; 0 on a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry names and hands out instruments. Get-or-create lookups take a
// read-write mutex, so resolve instruments once and hold the pointers on
// hot paths; the instruments themselves are lock-free.
type Registry struct {
	mu sync.RWMutex
	// counters indexes counters by name. guarded by mu
	counters map[string]*Counter
	// gauges indexes gauges by name. guarded by mu
	gauges map[string]*Gauge
	// quantiles indexes quantile histograms by name. guarded by mu
	quantiles map[string]*QHistogram
	// counterVecs indexes counter vectors by name. guarded by mu
	counterVecs map[string]*CounterVec
	// gaugeVecs indexes gauge vectors by name. guarded by mu
	gaugeVecs map[string]*GaugeVec
	// histogramVecs indexes histogram vectors by name. guarded by mu
	histogramVecs map[string]*HistogramVec

	// labelErrors counts vector lookups with the wrong label arity and
	// vector re-registrations with different label names. Surfaced as
	// the counter "obs.registry.label_errors" once nonzero.
	labelErrors Counter
}

// NewRegistry returns an empty instrument registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:      make(map[string]*Counter),
		gauges:        make(map[string]*Gauge),
		quantiles:     make(map[string]*QHistogram),
		counterVecs:   make(map[string]*CounterVec),
		gaugeVecs:     make(map[string]*GaugeVec),
		histogramVecs: make(map[string]*HistogramVec),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// LabelErrors returns how many vector operations used a wrong label
// arity or re-registered a vector with different label names; 0 on a
// nil registry.
func (r *Registry) LabelErrors() int64 {
	if r == nil {
		return 0
	}
	return r.labelErrors.Value()
}

// QHistogram returns the named quantile histogram, creating it on first
// use. A nil registry returns a nil (no-op) histogram.
func (r *Registry) QHistogram(name string) *QHistogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.quantiles[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.quantiles[name]; h == nil {
		h = NewQHistogram()
		r.quantiles[name] = h
	}
	return h
}

// checkLabels bumps the label-error counter when a vector is looked up
// again with different label names.
func (r *Registry) checkLabels(existing, labels []string) {
	if len(existing) != len(labels) {
		r.labelErrors.Inc()
		return
	}
	for i := range labels {
		if labels[i] != existing[i] {
			r.labelErrors.Inc()
			return
		}
	}
}

// CounterVec returns the named counter vector with the given label
// names, creating it on first use. The first registration's label names
// win; a later call with different names gets the existing vector and
// bumps the "obs.registry.label_errors" counter. A nil registry returns
// a nil (no-op) vector.
func (r *Registry) CounterVec(name string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	v := r.counterVecs[name]
	r.mu.RUnlock()
	if v == nil {
		r.mu.Lock()
		if v = r.counterVecs[name]; v == nil {
			v = &CounterVec{
				vecCore: vecCore{
					labels:   append([]string(nil), labelNames...),
					children: make(map[string][]string),
					onArity:  r.labelErrors.Inc,
				},
				byKey: make(map[string]*Counter),
			}
			r.counterVecs[name] = v
			r.mu.Unlock()
			return v
		}
		r.mu.Unlock()
	}
	r.checkLabels(v.labels, labelNames)
	return v
}

// GaugeVec returns the named gauge vector with the given label names,
// creating it on first use. Registration semantics match CounterVec.
// A nil registry returns a nil (no-op) vector.
func (r *Registry) GaugeVec(name string, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	v := r.gaugeVecs[name]
	r.mu.RUnlock()
	if v == nil {
		r.mu.Lock()
		if v = r.gaugeVecs[name]; v == nil {
			v = &GaugeVec{
				vecCore: vecCore{
					labels:   append([]string(nil), labelNames...),
					children: make(map[string][]string),
					onArity:  r.labelErrors.Inc,
				},
				byKey: make(map[string]*Gauge),
			}
			r.gaugeVecs[name] = v
			r.mu.Unlock()
			return v
		}
		r.mu.Unlock()
	}
	r.checkLabels(v.labels, labelNames)
	return v
}

// HistogramVec returns the named quantile-histogram vector with the
// given label names, creating it on first use. Registration semantics
// match CounterVec. A nil registry returns a nil (no-op) vector.
func (r *Registry) HistogramVec(name string, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	v := r.histogramVecs[name]
	r.mu.RUnlock()
	if v == nil {
		r.mu.Lock()
		if v = r.histogramVecs[name]; v == nil {
			v = &HistogramVec{
				vecCore: vecCore{
					labels:   append([]string(nil), labelNames...),
					children: make(map[string][]string),
					onArity:  r.labelErrors.Inc,
				},
				byKey: make(map[string]*QHistogram),
			}
			r.histogramVecs[name] = v
			r.mu.Unlock()
			return v
		}
		r.mu.Unlock()
	}
	r.checkLabels(v.labels, labelNames)
	return v
}

// Snapshot is a point-in-time copy of every instrument. Concurrent
// updates during the copy yield per-instrument (not cross-instrument)
// consistency, which is what monitoring needs.
type Snapshot struct {
	// AtUnixNanos is the scrape instant on the serving process's clock,
	// stamped by the /metrics.json handler (zero when the snapshot was
	// taken directly from a Registry). Consumers computing counter rates
	// must difference this server-reported timestamp between scrapes
	// rather than their own poll clock: a slow or jittery poll otherwise
	// distorts every rate it renders.
	AtUnixNanos int64 `json:"atUnixNanos,omitempty"`

	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
	// The vector and quantile maps are omitted from JSON while empty so
	// snapshots from registries predating them are byte-identical.
	Quantiles     map[string]QHistogramSnapshot   `json:"quantiles,omitempty"`
	CounterVecs   map[string]VecSnapshot          `json:"counterVecs,omitempty"`
	GaugeVecs     map[string]VecSnapshot          `json:"gaugeVecs,omitempty"`
	HistogramVecs map[string]HistogramVecSnapshot `json:"histogramVecs,omitempty"`
}

// Snapshot copies the registry's current state. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:      make(map[string]int64),
		Gauges:        make(map[string]float64),
		Quantiles:     make(map[string]QHistogramSnapshot),
		CounterVecs:   make(map[string]VecSnapshot),
		GaugeVecs:     make(map[string]VecSnapshot),
		HistogramVecs: make(map[string]HistogramVecSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, q := range r.quantiles {
		s.Quantiles[name] = q.Snapshot()
	}
	for name, v := range r.counterVecs {
		s.CounterVecs[name] = v.Snapshot()
	}
	for name, v := range r.gaugeVecs {
		s.GaugeVecs[name] = v.Snapshot()
	}
	for name, v := range r.histogramVecs {
		s.HistogramVecs[name] = v.Snapshot()
	}
	// Self-monitoring counters appear once they have something to say,
	// keeping snapshots from clean registries unchanged.
	if n := r.labelErrors.Value(); n > 0 {
		s.Counters["obs.registry.label_errors"] = n
	}
	return s
}

// WriteText renders the snapshot in a stable expvar-style line format:
// one "kind name value..." line per instrument, sorted within each kind.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "gauge %s %g\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Quantiles) {
		q := s.Quantiles[name]
		if _, err := fmt.Fprintf(w, "quantile %s count=%d sum=%g min=%g max=%g p50=%g p90=%g p99=%g p999=%g\n",
			name, q.Count, q.Sum, q.Min, q.Max, q.P50, q.P90, q.P99, q.P999); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.CounterVecs) {
		v := s.CounterVecs[name]
		for _, lv := range v.Values {
			if _, err := fmt.Fprintf(w, "countervec %s%s %d\n",
				name, labelText(v.LabelNames, lv.Labels), int64(lv.Value)); err != nil {
				return err
			}
		}
	}
	for _, name := range sortedKeys(s.GaugeVecs) {
		v := s.GaugeVecs[name]
		for _, lv := range v.Values {
			if _, err := fmt.Fprintf(w, "gaugevec %s%s %g\n",
				name, labelText(v.LabelNames, lv.Labels), lv.Value); err != nil {
				return err
			}
		}
	}
	for _, name := range sortedKeys(s.HistogramVecs) {
		v := s.HistogramVecs[name]
		for _, lh := range v.Values {
			q := lh.Histogram
			if _, err := fmt.Fprintf(w, "histogramvec %s%s count=%d p50=%g p99=%g p999=%g\n",
				name, labelText(v.LabelNames, lh.Labels), q.Count, q.P50, q.P99, q.P999); err != nil {
				return err
			}
		}
	}
	return nil
}

// labelText renders a label tuple as {k1="v1",k2="v2"}.
func labelText(names, values []string) string {
	out := "{"
	for i, v := range values {
		if i > 0 {
			out += ","
		}
		name := "?"
		if i < len(names) {
			name = names[i]
		}
		out += fmt.Sprintf("%s=%q", name, v)
	}
	return out + "}"
}

// PublishExpvar exposes the registry's live snapshot under the given
// expvar name (and thus on /debug/vars when an HTTP server is up).
// Publishing an already-used name panics (expvar's contract), so call
// once per registry per process. No-op on a nil registry.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
