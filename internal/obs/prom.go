package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for a registry
// snapshot. Instrument names are sanitized to the Prometheus charset
// (every run of invalid characters becomes one underscore, so
// "core.walk.rtt_ms" scrapes as "core_walk_rtt_ms"). Quantile
// histograms and histogram vectors render as summaries carrying the
// standard p50/p90/p99/p999 quantile series beside _sum and _count.

// promName sanitizes an instrument name to [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else if b.Len() == 0 || b.String()[b.Len()-1] != '_' {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// promFloat renders a float the way Prometheus expects.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// promLabels renders {k1="v1",...} from parallel name/value slices,
// plus an optional extra pair; empty when there are no labels at all.
func promLabels(names, values []string, extraName, extraValue string) string {
	var parts []string
	for i, v := range values {
		name := "label" + strconv.Itoa(i)
		if i < len(names) {
			name = promName(names[i])
		}
		parts = append(parts, fmt.Sprintf(`%s="%s"`, name, promEscape(v)))
	}
	if extraName != "" {
		parts = append(parts, fmt.Sprintf(`%s="%s"`, extraName, promEscape(extraValue)))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

var promQuantiles = []struct {
	q    string
	pick func(QHistogramSnapshot) float64
}{
	{"0.5", func(s QHistogramSnapshot) float64 { return s.P50 }},
	{"0.9", func(s QHistogramSnapshot) float64 { return s.P90 }},
	{"0.99", func(s QHistogramSnapshot) float64 { return s.P99 }},
	{"0.999", func(s QHistogramSnapshot) float64 { return s.P999 }},
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format. Families are sorted by exposed name within each instrument
// kind, so output for a fixed snapshot is stable.
func WritePrometheus(w io.Writer, s Snapshot) error {
	bw := bufio.NewWriter(w)

	for _, name := range sortedKeys(s.Counters) {
		n := promName(name)
		fmt.Fprintf(bw, "# TYPE %s counter\n", n)
		fmt.Fprintf(bw, "%s %d\n", n, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		n := promName(name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", n)
		fmt.Fprintf(bw, "%s %s\n", n, promFloat(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Quantiles) {
		q := s.Quantiles[name]
		n := promName(name)
		fmt.Fprintf(bw, "# TYPE %s summary\n", n)
		for _, pq := range promQuantiles {
			fmt.Fprintf(bw, "%s{quantile=%q} %s\n", n, pq.q, promFloat(pq.pick(q)))
		}
		fmt.Fprintf(bw, "%s_sum %s\n", n, promFloat(q.Sum))
		fmt.Fprintf(bw, "%s_count %d\n", n, q.Count)
	}
	for _, name := range sortedKeys(s.CounterVecs) {
		v := s.CounterVecs[name]
		n := promName(name)
		fmt.Fprintf(bw, "# TYPE %s counter\n", n)
		for _, lv := range v.Values {
			fmt.Fprintf(bw, "%s%s %d\n", n, promLabels(v.LabelNames, lv.Labels, "", ""), int64(lv.Value))
		}
	}
	for _, name := range sortedKeys(s.GaugeVecs) {
		v := s.GaugeVecs[name]
		n := promName(name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", n)
		for _, lv := range v.Values {
			fmt.Fprintf(bw, "%s%s %s\n", n, promLabels(v.LabelNames, lv.Labels, "", ""), promFloat(lv.Value))
		}
	}
	for _, name := range sortedKeys(s.HistogramVecs) {
		v := s.HistogramVecs[name]
		n := promName(name)
		fmt.Fprintf(bw, "# TYPE %s summary\n", n)
		for _, lh := range v.Values {
			for _, pq := range promQuantiles {
				fmt.Fprintf(bw, "%s%s %s\n", n,
					promLabels(v.LabelNames, lh.Labels, "quantile", pq.q), promFloat(pq.pick(lh.Histogram)))
			}
			fmt.Fprintf(bw, "%s_sum%s %s\n", n, promLabels(v.LabelNames, lh.Labels, "", ""), promFloat(lh.Histogram.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", n, promLabels(v.LabelNames, lh.Labels, "", ""), lh.Histogram.Count)
		}
	}
	return bw.Flush()
}

// CheckExposition validates a Prometheus text exposition stream: every
// non-comment line must be a well-formed sample whose family was
// declared by a preceding # TYPE line (directly, or through the
// _bucket/_sum/_count series of a histogram or summary), TYPE
// declarations must not repeat, histogram buckets must carry an le
// label and summary quantile values a quantile label, and values must
// parse as floats. It is the CI obs-smoke gate's parser; returns the
// first violation with its 1-based line number.
func CheckExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	types := make(map[string]string)
	lineNo := 0
	sawSample := false
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: malformed TYPE comment %q", lineNo, line)
				}
				name, kind := fields[2], fields[3]
				if !validPromName(name) {
					return fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
				}
				switch kind {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: invalid metric type %q", lineNo, kind)
				}
				if prev, ok := types[name]; ok {
					return fmt.Errorf("line %d: duplicate TYPE for %s (already %s)", lineNo, name, prev)
				}
				types[name] = kind
			}
			continue
		}
		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		sawSample = true
		family, series := promFamily(name, types)
		if family == "" {
			return fmt.Errorf("line %d: sample %q has no preceding TYPE declaration", lineNo, name)
		}
		kind := types[family]
		switch {
		case kind == "histogram" && series == "_bucket":
			if _, ok := labels["le"]; !ok {
				return fmt.Errorf("line %d: histogram bucket %q missing le label", lineNo, name)
			}
		case kind == "summary" && series == "":
			if q, ok := labels["quantile"]; ok {
				if _, err := strconv.ParseFloat(q, 64); err != nil {
					return fmt.Errorf("line %d: bad quantile label %q", lineNo, q)
				}
			}
		}
		_ = value
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(types) == 0 && !sawSample {
		return fmt.Errorf("empty exposition")
	}
	return nil
}

func validPromName(name string) bool {
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return name != ""
}

// promFamily resolves a sample name to its declared family: the name
// itself, or the base of a _bucket/_sum/_count series when that base
// was declared as a histogram or summary. It returns the family and the
// series suffix ("" for the family's own samples).
func promFamily(name string, types map[string]string) (family, series string) {
	if _, ok := types[name]; ok {
		return name, ""
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		switch types[base] {
		case "histogram":
			return base, suffix
		case "summary":
			if suffix != "_bucket" {
				return base, suffix
			}
		}
	}
	return "", ""
}

// parsePromSample parses one sample line: name[{labels}] value [ts].
func parsePromSample(line string) (name string, labels map[string]string, value float64, err error) {
	labels = make(map[string]string)
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	} else {
		name = rest[:i]
		rest = rest[i:]
	}
	if !validPromName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	if strings.HasPrefix(rest, "{") {
		body := rest[1:]
		for {
			body = strings.TrimLeft(body, " ,")
			if strings.HasPrefix(body, "}") {
				rest = body[1:]
				break
			}
			eq := strings.Index(body, "=")
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed labels in %q", line)
			}
			key := strings.TrimSpace(body[:eq])
			if !validPromName(key) {
				return "", nil, 0, fmt.Errorf("invalid label name %q", key)
			}
			body = body[eq+1:]
			if !strings.HasPrefix(body, `"`) {
				return "", nil, 0, fmt.Errorf("unquoted label value in %q", line)
			}
			body = body[1:]
			var val strings.Builder
			for {
				if body == "" {
					return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
				}
				c := body[0]
				if c == '\\' {
					if len(body) < 2 {
						return "", nil, 0, fmt.Errorf("dangling escape in %q", line)
					}
					switch body[1] {
					case '\\', '"':
						val.WriteByte(body[1])
					case 'n':
						val.WriteByte('\n')
					default:
						return "", nil, 0, fmt.Errorf("bad escape \\%c in %q", body[1], line)
					}
					body = body[2:]
					continue
				}
				if c == '"' {
					body = body[1:]
					break
				}
				val.WriteByte(c)
				body = body[1:]
			}
			labels[key] = val.String()
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("expected value (and optional timestamp) in %q", line)
	}
	value, err = parsePromValue(fields[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, value, nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return 0, nil // representable in the format, parsed specially
	case "-Inf":
		return 0, nil
	case "NaN", "Nan":
		return 0, nil
	}
	return strconv.ParseFloat(s, 64)
}
