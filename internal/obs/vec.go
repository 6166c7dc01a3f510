package obs

import (
	"sort"
	"strings"
	"sync"
)

// Labeled instrument vectors: families of counters or gauges indexed by
// an ordered tuple of label values (session, tenant, op, ...). Each
// distinct label tuple materialises one child instrument, resolved once
// with With and then updated lock-free, so a per-session gauge costs
// what an unlabeled gauge costs after the first touch. A labeled
// latency is not a vector: it is one QHistogram per name, with the
// label folded into the name (server.phase.<op>.latency_quantiles_ms).
//
// Label cardinality is the caller's contract. Counter children live as
// long as their vector, so counter labels must come from a bounded set
// (op names, error codes, tenants). Gauge children live until Delete,
// so per-session gauges are deleted at session teardown. Never label by
// unbounded values (request IDs, timestamps). The drift monitor and the
// /metrics exposition iterate every child.
//
// All vector types are nil-safe the same way the scalar instruments
// are: a nil vector hands out nil (no-op) children. With called with
// the wrong number of label values returns a nil child and bumps the
// owning registry's LabelErrors counter — a monitoring layer must not
// panic the system it watches.

// labelKey joins label values into one map key. \x1f (ASCII unit
// separator) cannot collide with reasonable label values.
func labelKey(values []string) string {
	return strings.Join(values, "\x1f")
}

func splitLabelKey(key string) []string {
	return strings.Split(key, "\x1f")
}

// vecCore is the shared child-management machinery of the vector types.
type vecCore struct {
	mu       sync.RWMutex
	labels   []string
	children map[string][]string // key -> label values
	onArity  func()              // bumps the registry's label-error counter
}

func (v *vecCore) keyFor(values []string) (string, bool) {
	if len(values) != len(v.labels) {
		if v.onArity != nil {
			v.onArity()
		}
		return "", false
	}
	return labelKey(values), true
}

// CounterVec is a family of counters indexed by label values.
type CounterVec struct {
	vecCore
	byKey map[string]*Counter
}

// With returns the child counter for the given label values, creating
// it on first use. Nil receiver or wrong label arity returns a nil
// (no-op) counter.
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	key, ok := v.keyFor(labelValues)
	if !ok {
		return nil
	}
	v.mu.RLock()
	c := v.byKey[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.byKey[key]; c == nil {
		c = &Counter{}
		v.byKey[key] = c
		v.children[key] = append([]string(nil), labelValues...)
	}
	return c
}

// GaugeVec is a family of gauges indexed by label values.
type GaugeVec struct {
	vecCore
	byKey map[string]*Gauge
}

// With returns the child gauge for the given label values, creating it
// on first use. Nil receiver or wrong label arity returns a nil gauge.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	if v == nil {
		return nil
	}
	key, ok := v.keyFor(labelValues)
	if !ok {
		return nil
	}
	v.mu.RLock()
	g := v.byKey[key]
	v.mu.RUnlock()
	if g != nil {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g = v.byKey[key]; g == nil {
		g = &Gauge{}
		v.byKey[key] = g
		v.children[key] = append([]string(nil), labelValues...)
	}
	return g
}

// Get returns the child gauge for the given label values without
// creating it; nil when absent.
func (v *GaugeVec) Get(labelValues ...string) *Gauge {
	if v == nil {
		return nil
	}
	key, ok := v.keyFor(labelValues)
	if !ok {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.byKey[key]
}

// Delete drops the child for the given label values.
func (v *GaugeVec) Delete(labelValues ...string) {
	if v == nil {
		return
	}
	key, ok := v.keyFor(labelValues)
	if !ok {
		return
	}
	v.mu.Lock()
	delete(v.byKey, key)
	delete(v.children, key)
	v.mu.Unlock()
}

// LabelValues returns the label tuples of every live child, sorted.
func (v *GaugeVec) LabelValues() [][]string {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	out := make([][]string, len(keys))
	for i, k := range keys {
		out[i] = splitLabelKey(k)
	}
	return out
}

// Snapshot copies the vector's current state; zero value on nil.
func (v *CounterVec) Snapshot() VecSnapshot {
	if v == nil {
		return VecSnapshot{}
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	s := VecSnapshot{LabelNames: append([]string(nil), v.labels...)}
	for _, k := range sortedKeys(v.byKey) {
		s.Values = append(s.Values, LabeledValue{
			Labels: append([]string(nil), v.children[k]...),
			Value:  float64(v.byKey[k].Value()),
		})
	}
	return s
}

// Snapshot copies the vector's current state; zero value on nil.
func (v *GaugeVec) Snapshot() VecSnapshot {
	if v == nil {
		return VecSnapshot{}
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	s := VecSnapshot{LabelNames: append([]string(nil), v.labels...)}
	for _, k := range sortedKeys(v.byKey) {
		s.Values = append(s.Values, LabeledValue{
			Labels: append([]string(nil), v.children[k]...),
			Value:  v.byKey[k].Value(),
		})
	}
	return s
}

// LabeledValue is one vector child's value in a snapshot.
type LabeledValue struct {
	// Labels holds the child's label values, parallel to the vector's
	// label names.
	Labels []string `json:"labels"`
	// Value is the child's value (counters are exact in float64 up to
	// 2^53).
	Value float64 `json:"value"`
}

// VecSnapshot is one counter or gauge vector's state at snapshot time.
type VecSnapshot struct {
	// LabelNames holds the vector's label names in declaration order.
	LabelNames []string `json:"labelNames"`
	// Values holds one entry per live child, sorted by label values.
	Values []LabeledValue `json:"values"`
}
