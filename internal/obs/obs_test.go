package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("probes")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("probes") != c {
		t.Error("Counter is not get-or-create")
	}
	g := r.Gauge("alpha")
	g.Set(0.3)
	if got := g.Value(); got != 0.3 {
		t.Errorf("gauge = %v, want 0.3", got)
	}
	g.Set(-1.5)
	if got := g.Value(); got != -1.5 {
		t.Errorf("gauge = %v, want -1.5", got)
	}
}

// TestRegistryConcurrentWriters exercises every instrument kind from
// many goroutines; run with -race this is the registry race test.
func TestRegistryConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Set(float64(i))
				r.QHistogram("h").Observe(float64(i))
				if i%100 == 0 {
					r.Snapshot() // concurrent readers
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.QHistogram("h").Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.QHistogram("x").Observe(1)
	if got := r.Counter("x").Value(); got != 0 {
		t.Errorf("nil counter = %d", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteText = %q, %v", buf.String(), err)
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("ratio").Set(0.25)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := "counter a.count 1\ncounter b.count 2\ngauge ratio 0.25\n"
	if buf.String() != want {
		t.Errorf("WriteText =\n%q\nwant\n%q", buf.String(), want)
	}
}

func TestNilTracerIsNoOpAndAllocationFree(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	allocs := testing.AllocsPerRun(200, func() {
		tr.RequestReceived(1, 2)
		tr.ProbeSpawned(1, tr.NextProbeID(), 0, 3, 1.5)
		tr.CandidatePruned(1, 0, 0, 0, 3, ReasonQoS)
		tr.HoldAcquired(1, 1, 0, 3)
		tr.HoldReleased(1, -1)
		tr.ProbeForwarded(1, 1, 0, 3, 2)
		tr.ProbeReturned(1, 1, 3, 2.5)
		tr.ProbeDropped(1, 1, 0, 3, ReasonShutdown)
		tr.Decided(1, 2, ReasonNoComposition)
		tr.Committed(1, 2)
		tr.RolledBack(1, 2, ReasonAbort)
		tr.SessionReleased(1)
		tr.MsgDropped(1, 2, ReasonFaultInjected)
		tr.MsgDelayed(1, 2, 0.5)
		tr.MsgDuplicated(1, 2)
		tr.NodeCrashed(2)
		tr.NodeRestarted(2)
		tr.HoldSwept(2, 3)
		tr.ComposeRetried(1, 2, 1)
	})
	if allocs != 0 {
		t.Errorf("nil tracer emissions allocate %v bytes/op, want 0", allocs)
	}
	if tr.NextProbeID() != 0 {
		t.Error("nil tracer NextProbeID != 0")
	}
}

// TestJSONLRoundTrip asserts emit -> parse reproduces the exact event
// sequence.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := New(sink)
	now := time.Duration(0)
	tr.SetClock(func() time.Duration { now += time.Millisecond; return now })

	tr.RequestReceived(7, 4)
	p := tr.NextProbeID()
	tr.ProbeSpawned(7, p, 0, 9, 1.25)
	tr.CandidatePruned(7, 0, p, 1, 11, ReasonRiskRank)
	tr.HoldAcquired(7, p, 0, 9)
	tr.ProbeReturned(7, p, 9, 4.5)
	tr.Decided(7, 4, "")
	tr.Committed(7, 4)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{AtMicros: 1000, Type: EventRequestReceived, Req: 7, Pos: -1, Node: 4},
		{AtMicros: 2000, Type: EventProbeSpawned, Req: 7, Probe: p, Pos: 0, Node: 9, LatencyMs: 1.25},
		{AtMicros: 3000, Type: EventCandidatePruned, Req: 7, Parent: p, Pos: 1, Node: 11, Reason: ReasonRiskRank},
		{AtMicros: 4000, Type: EventHoldAcquired, Req: 7, Probe: p, Pos: 0, Node: 9},
		{AtMicros: 5000, Type: EventProbeReturned, Req: 7, Probe: p, Pos: -1, Node: 9, LatencyMs: 4.5},
		{AtMicros: 6000, Type: EventDecided, Req: 7, Pos: -1, Node: 4},
		{AtMicros: 7000, Type: EventCommitted, Req: 7, Pos: -1, Node: 4},
	}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", events, want)
	}
}

// TestFaultEventRoundTrip covers the fault-injection and recovery event
// schema: node identity, reasons, and the Count tally survive JSONL.
func TestFaultEventRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := New(sink)
	now := time.Duration(0)
	tr.SetClock(func() time.Duration { now += time.Millisecond; return now })

	tr.MsgDropped(3, 5, ReasonNodeDown)
	tr.MsgDelayed(3, 5, 2.5)
	tr.MsgDuplicated(3, 5)
	tr.NodeCrashed(5)
	tr.NodeRestarted(5)
	tr.HoldSwept(5, 4)
	tr.ComposeRetried(3, 1, 2)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{AtMicros: 1000, Type: EventMsgDropped, Req: 3, Pos: -1, Node: 5, Reason: ReasonNodeDown},
		{AtMicros: 2000, Type: EventMsgDelayed, Req: 3, Pos: -1, Node: 5, Reason: ReasonFaultInjected, LatencyMs: 2.5},
		{AtMicros: 3000, Type: EventMsgDuplicated, Req: 3, Pos: -1, Node: 5, Reason: ReasonFaultInjected},
		{AtMicros: 4000, Type: EventNodeCrashed, Pos: -1, Node: 5, Reason: ReasonNodeCrash},
		{AtMicros: 5000, Type: EventNodeRestarted, Pos: -1, Node: 5},
		{AtMicros: 6000, Type: EventHoldSwept, Pos: -1, Node: 5, Count: 4},
		{AtMicros: 7000, Type: EventComposeRetried, Req: 3, Pos: -1, Node: 1, Count: 2},
	}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", events, want)
	}
	// None of the fault events open or close probe spans.
	for _, e := range events {
		if e.OpensSpan() || e.ClosesSpan() {
			t.Errorf("fault event %s participates in span accounting", e.Type)
		}
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	if _, err := ReadEvents(strings.NewReader("{\"type\":\"probe.spawned\"}\nnot json\n")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestLeakedSpans(t *testing.T) {
	events := []Event{
		{Type: EventProbeSpawned, Probe: 1},
		{Type: EventProbeSpawned, Probe: 2},
		{Type: EventProbeSpawned, Probe: 3},
		{Type: EventProbeSpawned, Probe: 4},
		{Type: EventProbeReturned, Probe: 1},
		{Type: EventCandidatePruned, Probe: 2, Reason: ReasonQoS},
		{Type: EventCandidatePruned, Probe: 0, Reason: ReasonRiskRank}, // pre-spawn prune closes nothing
		{Type: EventProbeForwarded, Probe: 3},
	}
	if got := LeakedSpans(events); !reflect.DeepEqual(got, []int64{4}) {
		t.Errorf("LeakedSpans = %v, want [4]", got)
	}
	events = append(events, Event{Type: EventProbeDropped, Probe: 4, Reason: ReasonShutdown})
	if got := LeakedSpans(events); got != nil {
		t.Errorf("LeakedSpans after drop = %v, want nil", got)
	}
}

// TestTracerConcurrentEmit exercises concurrent emission through one
// sink under -race.
func TestTracerConcurrentEmit(t *testing.T) {
	sink := &MemorySink{}
	tr := New(sink)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p := tr.NextProbeID()
				tr.ProbeSpawned(int64(w), p, i, w, 0)
				tr.ProbeReturned(int64(w), p, w, 0)
			}
		}(w)
	}
	wg.Wait()
	if sink.Len() != 8*500*2 {
		t.Errorf("events = %d, want %d", sink.Len(), 8*500*2)
	}
	if leaked := LeakedSpans(sink.Events()); leaked != nil {
		t.Errorf("leaked spans: %v", leaked)
	}
}

// TestPublishExpvar checks the expvar export reflects live registry
// state and that a nil registry publish is a no-op.
func TestPublishExpvar(t *testing.T) {
	r := NewRegistry()
	r.Counter("expvar.test.hits").Add(3)
	r.PublishExpvar("obs-test-registry")
	(*Registry)(nil).PublishExpvar("obs-test-nil") // must not publish or panic

	v := expvar.Get("obs-test-registry")
	if v == nil {
		t.Fatal("expvar.Get returned nil after PublishExpvar")
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("expvar value is not a JSON snapshot: %v", err)
	}
	if snap.Counters["expvar.test.hits"] != 3 {
		t.Errorf("exported counter = %d, want 3", snap.Counters["expvar.test.hits"])
	}

	// The export is live: later updates show up without republishing.
	r.Counter("expvar.test.hits").Inc()
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("re-read snapshot: %v", err)
	}
	if snap.Counters["expvar.test.hits"] != 4 {
		t.Errorf("exported counter after update = %d, want 4", snap.Counters["expvar.test.hits"])
	}
	if expvar.Get("obs-test-nil") != nil {
		t.Error("nil registry published an expvar")
	}
}
