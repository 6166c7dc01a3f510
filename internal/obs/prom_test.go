package obs

import (
	"bytes"
	"strings"
	"testing"
)

// fullRegistry populates one instrument of every kind.
func fullRegistry() *Registry {
	r := NewRegistry()
	r.Counter("core.probes.sent").Add(12)
	r.Gauge("runtime.sessions.active").Set(3)
	q := r.QHistogram("core.walk.rtt_ms")
	for i := 1; i <= 100; i++ {
		q.Observe(float64(i))
	}
	r.CounterVec("rpc.calls", "method").With("find").Add(4)
	r.GaugeVec("session.phi", "session").With("9").Set(0.75)
	return r
}

func TestWritePrometheusIsValidExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, fullRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("own exposition rejected: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE core_probes_sent counter",
		"core_probes_sent 12",
		"# TYPE runtime_sessions_active gauge",
		"# TYPE core_walk_rtt_ms summary",
		`core_walk_rtt_ms{quantile="0.5"}`,
		`core_walk_rtt_ms{quantile="0.999"}`,
		`rpc_calls{method="find"} 4`,
		`session_phi{session="9"} 0.75`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusEmptySnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, NewRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	// Nothing registered renders nothing — and CheckExposition treats an
	// empty scrape as an error, which is exactly what CI should see if
	// the server wires a nil registry.
	if buf.Len() != 0 {
		t.Fatalf("empty snapshot rendered %q", buf.String())
	}
}

func TestPromNameSanitization(t *testing.T) {
	for in, want := range map[string]string{
		"core.walk.rtt_ms":  "core_walk_rtt_ms",
		"weird--name!!here": "weird_name_here",
		"9starts.with.num":  "_starts_with_num",
		"ok_name":           "ok_name",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeVec("g", "path").With("a\\b\"c\nd").Set(1)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `path="a\\b\"c\nd"`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
	if err := CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("escaped exposition rejected: %v", err)
	}
}

func TestCheckExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"bad value":        "# TYPE x counter\nx notanumber\n",
		"sample sans TYPE": "x 1\n",
		"duplicate TYPE":   "# TYPE x counter\nx 1\n# TYPE x counter\nx 2\n",
		"bad kind":         "# TYPE x widget\nx 1\n",
		"bad name":         "# TYPE 1x counter\n1x 1\n",
		"bucket sans le":   "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n",
		"bad quantile":     "# TYPE s summary\ns{quantile=\"often\"} 1\n",
		"unterminated":     "# TYPE x counter\nx{l=\"v 1\n",
	}
	for name, in := range cases {
		if err := CheckExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted:\n%s", name, in)
		}
	}
}

func TestCheckExpositionAcceptsRealShapes(t *testing.T) {
	good := `# HELP up whether the target is up
# TYPE up gauge
up 1
# TYPE h histogram
h_bucket{le="1"} 2
h_bucket{le="+Inf"} 3
h_sum 4.5
h_count 3
# TYPE s summary
s{quantile="0.5"} 1
s{op="find",quantile="0.99"} 1
s_sum 2
s_count 2
`
	if err := CheckExposition(strings.NewReader(good)); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
}
