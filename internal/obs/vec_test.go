package obs

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestVecBasics(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("rpc.calls", "method", "node")
	cv.With("find", "3").Add(2)
	cv.With("find", "3").Inc()
	cv.With("close", "3").Inc()
	s := cv.Snapshot()
	if !reflect.DeepEqual(s.LabelNames, []string{"method", "node"}) {
		t.Fatalf("LabelNames = %v", s.LabelNames)
	}
	want := []LabeledValue{
		{Labels: []string{"close", "3"}, Value: 1},
		{Labels: []string{"find", "3"}, Value: 3},
	}
	if !reflect.DeepEqual(s.Values, want) {
		t.Fatalf("Values = %+v, want %+v", s.Values, want)
	}

	gv := r.GaugeVec("session.phi", "session")
	gv.With("9").Set(0.7)
	if g := gv.Get("9"); g == nil || g.Value() != 0.7 {
		t.Fatalf("Get(9) = %v", g)
	}
	if gv.Get("missing") != nil {
		t.Fatal("Get on an absent child created it")
	}
	gv.Delete("9")
	if gv.Get("9") != nil {
		t.Fatal("Delete left the child behind")
	}
}

func TestVecArityMismatch(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("v", "a", "b")
	if c := cv.With("only-one"); c != nil {
		t.Fatal("arity mismatch returned a live child")
	}
	// The no-op child is safe to use.
	cv.With("only-one").Inc()
	if got := r.Snapshot().Counters["obs.registry.label_errors"]; got != 2 {
		t.Fatalf("label_errors = %d, want 2", got)
	}
	// Re-registering the same name with different label names is also a
	// label error and yields the original vector.
	if again := r.CounterVec("v", "different"); again != cv {
		t.Fatal("re-registration returned a different vector")
	}
	if got := r.Snapshot().Counters["obs.registry.label_errors"]; got != 3 {
		t.Fatalf("label_errors after re-register = %d, want 3", got)
	}
}

func TestNilVecsAreNoOps(t *testing.T) {
	var (
		cv *CounterVec
		gv *GaugeVec
	)
	cv.With("x").Inc()
	gv.With("x").Set(1)
	if gv.Get("x") != nil {
		t.Fatal("nil GaugeVec.Get returned a child")
	}
	gv.Delete("x")
	if s := cv.Snapshot(); len(s.Values) != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
	if lv := gv.LabelValues(); lv != nil {
		t.Fatalf("nil LabelValues = %v", lv)
	}

	// A nil registry vends nil vectors.
	var r *Registry
	if v := r.GaugeVec("x", "l"); v != nil {
		t.Fatal("nil registry returned a vector")
	}
}

func TestVecLabelValuesSorted(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("g", "session")
	for _, s := range []string{"30", "1", "2", "10"} {
		gv.With(s).Set(1)
	}
	got := gv.LabelValues()
	want := [][]string{{"1"}, {"10"}, {"2"}, {"30"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LabelValues = %v, want %v", got, want)
	}
}

// TestVecConcurrent is the -race gate for the vector fast path: many
// goroutines creating and bumping overlapping children while snapshots
// run.
func TestVecConcurrent(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("c", "k")
	var wg sync.WaitGroup
	const workers, perWorker = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cv.With(fmt.Sprint(i % 17)).Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = cv.Snapshot()
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	var total float64
	for _, lv := range cv.Snapshot().Values {
		total += lv.Value
	}
	if total != workers*perWorker {
		t.Fatalf("total = %v, want %d", total, workers*perWorker)
	}
}

// TestVecObserveAllocationFree guards the labeled hot path: updating an
// existing child must not allocate. The runtime sets each session's
// gauge child on every Find.
func TestVecObserveAllocationFree(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("g", "session")
	gc := gv.With("steady")
	if n := testing.AllocsPerRun(1000, func() { gc.Set(1.5) }); n != 0 {
		t.Errorf("cached child Set allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() { gv.With("steady").Set(1.5) }); n != 0 {
		t.Errorf("existing child With+Set allocates %v per call", n)
	}
	cv := r.CounterVec("c", "k")
	cc := cv.With("steady")
	if n := testing.AllocsPerRun(1000, func() { cc.Inc() }); n != 0 {
		t.Errorf("cached child Inc allocates %v per call", n)
	}
}
