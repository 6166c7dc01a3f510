package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/server"
)

const (
	// wireConns is the number of client connections, each driven by
	// one goroutine: no more than the reference box's two cores.
	wireConns = 2
	// shapePool is how many request shapes each connection draws from
	// the seed before timing starts; a run cycles through them.
	shapePool = 1 << 14
	// residentFraction is the share of the cluster's CPU the resident
	// sets hold together. CPU binds first for acpload-shaped requests.
	residentFraction = 0.9
	// meanSessionCPU is the CPU one acpload-shaped session holds on
	// average: 3 functions (2-4) at 5 CPU each (2-8).
	meanSessionCPU = 3 * 5.0
	// recomposeEvery is the resident cycle period of the heartbeat +
	// recompose of a random live session.
	recomposeEvery = 10
	// maxErrs bounds the failure descriptions kept per connection.
	maxErrs = 5
	// tickEvery splits a measured window into sub-windows; the timed
	// end-to-end metrics are medians over them, so a burst of load from
	// outside the benchmark moves a few sub-windows, not the result.
	tickEvery = time.Second
	// minSubWindow drops the short last sub-window.
	minSubWindow = tickEvery / 2
)

// wireConfig sizes one run of a wire workload.
type wireConfig struct {
	resident        bool
	seed            int64
	warmup, measure time.Duration
	traced          bool
	// corrupt, when non-nil, rewrites every compose response before it
	// is checked; the smoke test uses it to show the gate trips.
	corrupt func(*server.Response)
}

// stack is the serving stack acpserve wires, booted in this process.
type stack struct {
	reg     *obs.Registry
	cluster *runtime.Cluster
	srv     *server.Server
}

// bootStack builds the default cluster and serves it on a loopback
// port, sharing one registry, as acpserve does with its default flags.
func bootStack() (*stack, error) {
	reg := obs.NewRegistry()
	ccfg := runtime.DefaultConfig()
	ccfg.Registry = reg
	cluster, err := runtime.NewCluster(ccfg)
	if err != nil {
		return nil, fmt.Errorf("boot cluster: %w", err)
	}
	srv, err := server.Listen("127.0.0.1:0", server.Config{Cluster: cluster, Registry: reg})
	if err != nil {
		cluster.Shutdown()
		return nil, fmt.Errorf("boot server: %w", err)
	}
	return &stack{reg: reg, cluster: cluster, srv: srv}, nil
}

func (s *stack) close() {
	_ = s.srv.Close() // only reports the listener's close error
	s.cluster.Shutdown()
}

// wireSetup times bootStack reps times and returns the median seconds.
func wireSetup(reps int) (float64, error) {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		st, err := bootStack()
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
		st.close()
	}
	return median(times), nil
}

// genShapes draws one connection's request shapes from the workload
// seed, shaped like acpload's: 2-4 functions, cpu 2-8, memory 20-60 MB
// and bandwidth 20-60 kbps per virtual link, with QoS bounds loose
// enough that only capacity refuses. picks choose which live session a
// resident recompose targets.
func genShapes(seed int64, conn, numFunctions int) (shapes []server.Request, picks []int) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(conn)))
	shapes = make([]server.Request, shapePool)
	for i := range shapes {
		fns := make([]int, 2+rng.Intn(3))
		for j := range fns {
			fns[j] = rng.Intn(numFunctions)
		}
		shapes[i] = server.Request{
			Functions:     fns,
			CPU:           2 + rng.Float64()*6,
			MemoryMB:      20 + rng.Float64()*40,
			Delay:         1e5,
			LossProb:      0.9,
			BandwidthKbps: 20 + rng.Float64()*40,
		}
	}
	picks = make([]int, shapePool)
	for i := range picks {
		picks[i] = rng.Int()
	}
	return shapes, picks
}

// span is one timed call the benchmark made into a layer. Spans of one
// cycle share trace. It holds no pointers, so a traced window's spans
// add no work to the garbage collector's marking.
type span struct {
	trace      int64
	start, dur time.Duration
	name       spanName
}

// spanName names a span; every server.* span's parent is its cycle.
type spanName uint8

const (
	spanCycle spanName = iota
	spanCompose
	spanCommit
	spanTeardown
	spanHeartbeat
	spanRecompose
	spanRun
)

var spanNames = [...]string{"cycle", "server.compose", "server.commit", "server.teardown",
	"server.heartbeat", "server.recompose", "experiment.Run"}

func (n spanName) String() string { return spanNames[n] }

func (n spanName) parent() string {
	if n == spanCycle || n == spanRun {
		return ""
	}
	return "cycle"
}

// sample is one compose round trip, stamped with when it ended.
type sample struct {
	at time.Duration // since the window started
	ms float64
}

// opStats is what one connection measured.
type opStats struct {
	composes, admitted   int64
	recomposes, migrated int64
	failed               int64
	phiSum               float64
	composeRTT           []sample
	// reqAt and admitAt stamp when each composition request (compose
	// or recompose) and each committed compose ended.
	reqAt, admitAt       []time.Duration
	commitMs, teardownMs []float64 // traced runs only
	recomposeMs          []float64 // traced runs only
	spans                []span    // traced runs only
	errs                 []string
}

func (s *opStats) add(o *opStats) {
	s.composes += o.composes
	s.admitted += o.admitted
	s.recomposes += o.recomposes
	s.migrated += o.migrated
	s.failed += o.failed
	s.phiSum += o.phiSum
	s.composeRTT = append(s.composeRTT, o.composeRTT...)
	s.reqAt = append(s.reqAt, o.reqAt...)
	s.admitAt = append(s.admitAt, o.admitAt...)
	s.commitMs = append(s.commitMs, o.commitMs...)
	s.teardownMs = append(s.teardownMs, o.teardownMs...)
	s.recomposeMs = append(s.recomposeMs, o.recomposeMs...)
	s.spans = append(s.spans, o.spans...)
	s.errs = append(s.errs, o.errs...)
}

// liveSession is one committed session of a resident set, with the
// request it answers.
type liveSession struct {
	id  int64
	req *server.Request
}

// worker drives one connection.
type worker struct {
	cfg    *wireConfig
	conn   int
	cl     *server.Client
	t0     time.Time
	shapes []server.Request
	picks  []int
	cursor int
	cycles int64
	// ring is the resident FIFO: n sessions starting at head.
	ring    []liveSession
	head, n int
	st      opStats
}

func (w *worker) fail(format string, args ...any) {
	w.st.failed++
	if len(w.st.errs) < maxErrs {
		w.st.errs = append(w.st.errs, fmt.Sprintf("conn %d: ", w.conn)+fmt.Sprintf(format, args...))
	}
}

// timed records a traced span for the call that started at start and
// returns its duration in ms.
func (w *worker) timed(name spanName, start time.Time) float64 {
	d := time.Since(start)
	if w.cfg.traced {
		w.st.spans = append(w.st.spans, span{trace: int64(w.conn)<<40 | w.cycles, name: name,
			start: start.Sub(w.t0), dur: d})
	}
	return float64(d) / float64(time.Millisecond)
}

// compose runs compose then commit for one request shape and returns
// the committed session, 0 when the cluster refused it or a check
// failed. An error means the connection is unusable.
func (w *worker) compose(req *server.Request) (int64, error) {
	w.st.composes++
	start := time.Now()
	resp, err := w.cl.Compose(*req)
	ms := w.timed(spanCompose, start)
	at := time.Since(w.t0)
	w.st.composeRTT = append(w.st.composeRTT, sample{at: at, ms: ms})
	w.st.reqAt = append(w.st.reqAt, at)
	if err != nil {
		w.fail("compose: %v", err)
		return 0, err
	}
	if w.cfg.corrupt != nil {
		w.cfg.corrupt(&resp)
	}
	if !resp.OK {
		if resp.Code != server.CodeCapacity {
			w.fail("compose: %s: %s", resp.Code, resp.Error)
		}
		return 0, nil
	}
	if err := checkComponents(req.Functions, resp.Components); err != nil {
		// The pending session is left to the disconnect release, which
		// the drain check then covers.
		w.fail("compose session %d: %v", resp.Session, err)
		return 0, nil
	}
	w.st.admitted++
	w.st.phiSum += resp.Phi

	start = time.Now()
	cm, err := w.cl.Commit(resp.Session)
	ms = w.timed(spanCommit, start)
	if w.cfg.traced {
		w.st.commitMs = append(w.st.commitMs, ms)
	}
	if err != nil {
		w.fail("commit: %v", err)
		return 0, err
	}
	if !cm.OK {
		w.fail("commit session %d: %s: %s", resp.Session, cm.Code, cm.Error)
		return 0, nil
	}
	w.st.admitAt = append(w.st.admitAt, time.Since(w.t0))
	return resp.Session, nil
}

func (w *worker) teardown(id int64) error {
	start := time.Now()
	resp, err := w.cl.Teardown(id)
	ms := w.timed(spanTeardown, start)
	if w.cfg.traced {
		w.st.teardownMs = append(w.st.teardownMs, ms)
	}
	if err != nil {
		w.fail("teardown: %v", err)
		return err
	}
	if !resp.OK {
		w.fail("teardown session %d: %s: %s", id, resp.Code, resp.Error)
	}
	return nil
}

// recompose heartbeats a live session and asks the server to migrate
// it; a no-better answer is a refusal, not a failure.
func (w *worker) recompose(s liveSession) error {
	w.st.recomposes++
	start := time.Now()
	hb, err := w.cl.Heartbeat(s.id)
	w.timed(spanHeartbeat, start)
	if err != nil {
		w.fail("heartbeat: %v", err)
		return err
	}
	if !hb.OK {
		w.fail("heartbeat session %d: %s: %s", s.id, hb.Code, hb.Error)
		return nil
	}
	start = time.Now()
	resp, err := w.cl.Recompose(s.id)
	ms := w.timed(spanRecompose, start)
	w.st.reqAt = append(w.st.reqAt, time.Since(w.t0))
	if w.cfg.traced {
		w.st.recomposeMs = append(w.st.recomposeMs, ms)
	}
	if err != nil {
		w.fail("recompose: %v", err)
		return err
	}
	if !resp.OK {
		if resp.Code != server.CodeNoBetter {
			w.fail("recompose session %d: %s: %s", s.id, resp.Code, resp.Error)
		}
		return nil
	}
	w.st.migrated++
	if err := checkComponents(s.req.Functions, resp.Components); err != nil {
		w.fail("recompose session %d: %v", s.id, err)
	}
	return nil
}

func (w *worker) nextShape() *server.Request {
	req := &w.shapes[w.cursor%len(w.shapes)]
	w.cursor++
	return req
}

func (w *worker) push(s liveSession) {
	w.ring[(w.head+w.n)%len(w.ring)] = s
	w.n++
}

func (w *worker) pop() liveSession {
	s := w.ring[w.head]
	w.head = (w.head + 1) % len(w.ring)
	w.n--
	return s
}

// cycle runs one closed-loop cycle. churn: compose, commit, teardown.
// resident: tear down the oldest session when the set is full, then
// compose and commit a new one. Whether the teardown happens never
// depends on a compose outcome, so refusals cannot wedge the set at
// capacity; every compose sees the set one short of full.
func (w *worker) cycle() error {
	defer func() { w.cycles++ }()
	var cycleStart time.Time
	if w.cfg.traced {
		cycleStart = time.Now()
		defer func() {
			w.st.spans = append(w.st.spans, span{trace: int64(w.conn)<<40 | w.cycles, name: spanCycle,
				start: cycleStart.Sub(w.t0), dur: time.Since(cycleStart)})
		}()
	}
	if !w.cfg.resident {
		id, err := w.compose(w.nextShape())
		if err != nil || id == 0 {
			return err
		}
		return w.teardown(id)
	}
	if w.n == len(w.ring) {
		if err := w.teardown(w.pop().id); err != nil {
			return err
		}
	}
	req := w.nextShape()
	id, err := w.compose(req)
	if err != nil {
		return err
	}
	if id != 0 {
		w.push(liveSession{id: id, req: req})
	}
	if (w.cycles+1)%recomposeEvery == 0 && w.n > 0 {
		pick := w.picks[int(w.cycles/recomposeEvery)%len(w.picks)] % w.n
		return w.recompose(w.ring[(w.head+pick)%len(w.ring)])
	}
	return nil
}

// fill composes until the resident set is full.
func (w *worker) fill() error {
	for attempts := 0; w.n < len(w.ring); attempts++ {
		if attempts > 20*len(w.ring) {
			return fmt.Errorf("conn %d: resident set stuck at %d of %d sessions", w.conn, w.n, len(w.ring))
		}
		req := w.nextShape()
		id, err := w.compose(req)
		if err != nil {
			return err
		}
		if id != 0 {
			w.push(liveSession{id: id, req: req})
		}
	}
	return nil
}

func (w *worker) runFor(d time.Duration) error {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if err := w.cycle(); err != nil {
			return err
		}
	}
	return nil
}

// parallel runs f on every worker at once and joins their errors.
func parallel(ws []*worker, f func(*worker) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(ws))
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			errs[i] = f(w)
		}(i, w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// residentTarget sizes each connection's live set so that together
// they hold residentFraction of the cluster's CPU.
func residentTarget(c *runtime.Cluster) int {
	capCPU := 0.0
	for node := 0; node < c.NumNodes(); node++ {
		capCPU += c.NodeCapacity(node).CPU
	}
	return int(residentFraction * capCPU / meanSessionCPU / wireConns)
}

// wireRun is one measured window of a wire workload.
type wireRun struct {
	st         opStats
	proc       procDelta
	ticks      []tick
	msgs       metrics.Counters // delta over the window
	reg0, reg1 obs.Snapshot
	target     int
}

// runWire boots the stack, drives it through the warm-up and the
// measured window, checks the live sessions (resident), closes every
// connection and checks the cluster drained. A non-nil error means the
// run could not finish; failed checks are counted in st.failed.
func runWire(cfg wireConfig) (*wireRun, error) {
	st, err := bootStack()
	if err != nil {
		return nil, err
	}
	defer st.cluster.Shutdown()
	closed := false
	defer func() {
		if !closed {
			_ = st.srv.Close() // error path: only the listener's close error
		}
	}()

	ws := make([]*worker, wireConns)
	out := &wireRun{}
	if cfg.resident {
		out.target = residentTarget(st.cluster)
	}
	numFunctions := runtime.DefaultConfig().NumFunctions
	for i := range ws {
		cl, err := server.Dial(st.srv.Addr())
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		if resp, err := cl.Hello(fmt.Sprintf("t%d", i)); err != nil || !resp.OK {
			return nil, fmt.Errorf("hello: %v %s", err, resp.Error)
		}
		shapes, picks := genShapes(cfg.seed, i, numFunctions)
		ws[i] = &worker{cfg: &cfg, conn: i, cl: cl, t0: time.Now(), shapes: shapes, picks: picks,
			ring: make([]liveSession, out.target)}
	}
	if cfg.resident {
		if err := parallel(ws, (*worker).fill); err != nil {
			return nil, err
		}
	}
	if err := parallel(ws, func(w *worker) error { return w.runFor(cfg.warmup) }); err != nil {
		return nil, err
	}

	carried := opStats{}
	for _, w := range ws {
		carried.failed += w.st.failed
		carried.errs = append(carried.errs, w.st.errs...)
		w.st = opStats{}
		if cfg.traced {
			w.st.spans = make([]span, 0, 1<<17)
		}
	}
	var live func() float64
	if cfg.traced {
		live = func() float64 { return float64(st.cluster.ActiveSessions()) }
	}
	out.reg0 = st.reg.Snapshot()
	msgs0 := st.cluster.Counters()
	p0 := sampleProc()
	for _, w := range ws {
		w.t0 = p0.at
	}
	stopTicks := sampleTicks(p0, live)
	runErr := parallel(ws, func(w *worker) error { return w.runFor(cfg.measure) })
	out.ticks = stopTicks()
	out.proc = since(p0)
	out.msgs = st.cluster.Counters()
	out.reg1 = st.reg.Snapshot()
	for _, w := range ws {
		out.st.add(&w.st)
	}
	out.st.failed += carried.failed
	out.st.errs = append(carried.errs, out.st.errs...)
	subtractCounters(&out.msgs, msgs0)
	if runErr != nil {
		return out, runErr
	}

	if cfg.resident {
		for _, w := range ws {
			for i := 0; i < w.n; i++ {
				s := w.ring[(w.head+i)%len(w.ring)]
				if err := checkLive(st.cluster, s); err != nil {
					out.st.failed++
					out.st.errs = append(out.st.errs, err.Error())
				}
			}
		}
		if err := st.cluster.CheckInvariants(); err != nil {
			out.st.failed++
			out.st.errs = append(out.st.errs, "eq4-5: "+err.Error())
		}
	}
	for _, w := range ws {
		_ = w.cl.Close() // the server sees EOF and releases what the connection owns
	}
	closed = true
	if err := st.srv.Close(); err != nil {
		return out, fmt.Errorf("close server: %w", err)
	}
	for _, err := range checkDrained(st.cluster) {
		out.st.failed++
		out.st.errs = append(out.st.errs, err.Error())
	}
	return out, nil
}

// checkLive describes a resident session and checks Eqs. 2 and 3.
func checkLive(c *runtime.Cluster, s liveSession) error {
	comp, err := c.Describe(runtime.SessionID(s.id))
	if err != nil {
		return fmt.Errorf("describe session %d: %w", s.id, err)
	}
	if err := checkComponents(s.req.Functions, describedComponents(comp)); err != nil {
		return fmt.Errorf("session %d: %w", s.id, err)
	}
	if err := checkQoS(comp.QoS, *s.req); err != nil {
		return fmt.Errorf("session %d: %w", s.id, err)
	}
	return nil
}

// tick is one sampler reading, at an offset from the window start.
type tick struct {
	at   time.Duration
	cpu  time.Duration
	live float64 // live sessions, traced runs only
}

// sampleTicks reads the process CPU, and the live session count when
// live is non-nil, at the window start and then every tickEvery until
// the returned stop function is called, which takes a last reading and
// returns them all.
func sampleTicks(origin procSample, live func() float64) (stop func() []tick) {
	read := func() tick {
		t := tick{at: time.Since(origin.at), cpu: cpuNow() - origin.cpu}
		if live != nil {
			t.live = live()
		}
		return t
	}
	done := make(chan struct{})
	ticks := []tick{{at: 0, cpu: 0}}
	if live != nil {
		ticks[0].live = live()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk := time.NewTicker(tickEvery)
		defer tk.Stop()
		for {
			select {
			case <-done:
				return
			case <-tk.C:
				ticks = append(ticks, read())
			}
		}
	}()
	return func() []tick {
		close(done)
		wg.Wait()
		return append(ticks, read())
	}
}

// subWindows returns the [from, to) spans between consecutive ticks,
// without the short last one.
func subWindows(ticks []tick) [][2]tick {
	var out [][2]tick
	for i := 1; i < len(ticks); i++ {
		if ticks[i].at-ticks[i-1].at >= minSubWindow {
			out = append(out, [2]tick{ticks[i-1], ticks[i]})
		}
	}
	return out
}

// countIn counts the sorted stamps in [from, to).
func countIn(sorted []time.Duration, from, to time.Duration) int {
	lo := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= from })
	hi := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= to })
	return hi - lo
}

func subtractCounters(c *metrics.Counters, base metrics.Counters) {
	c.Probes -= base.Probes
	c.ProbeReturns -= base.ProbeReturns
	c.StateUpdates -= base.StateUpdates
	c.Aggregations -= base.Aggregations
	c.Confirmations -= base.Confirmations
	c.Discovery -= base.Discovery
	c.Migrations -= base.Migrations
}

// requests is the composition requests a wire run attempted: composes
// and recomposes, each of which runs the probe walk.
func (r *wireRun) requests() float64 { return float64(r.st.composes + r.st.recomposes) }

// rttMs returns every compose round trip of the window in ms.
func (r *wireRun) rttMs() []float64 {
	out := make([]float64, len(r.st.composeRTT))
	for i, s := range r.st.composeRTT {
		out[i] = s.ms
	}
	return out
}

// endToEnd derives the user-visible metrics of a window. Throughput,
// compose latency and CPU per request are medians over the one-second
// sub-windows; the counts are totals over the window.
func (r *wireRun) endToEnd() map[string]float64 {
	sort.Slice(r.st.reqAt, func(i, j int) bool { return r.st.reqAt[i] < r.st.reqAt[j] })
	sort.Slice(r.st.admitAt, func(i, j int) bool { return r.st.admitAt[i] < r.st.admitAt[j] })
	rtt := r.st.composeRTT
	sort.Slice(rtt, func(i, j int) bool { return rtt[i].at < rtt[j].at })
	var tput, p50, p90, p99, cpu []float64
	for _, w := range subWindows(r.ticks) {
		from, to := w[0].at, w[1].at
		var lat []float64
		for i := sort.Search(len(rtt), func(i int) bool { return rtt[i].at >= from }); i < len(rtt) && rtt[i].at < to; i++ {
			lat = append(lat, rtt[i].ms)
		}
		tput = append(tput, float64(countIn(r.st.admitAt, from, to))/(to-from).Seconds())
		p50 = append(p50, percentile(lat, 0.50))
		p90 = append(p90, percentile(lat, 0.90))
		p99 = append(p99, percentile(lat, 0.99))
		cpu = append(cpu, ratio(float64(w[1].cpu-w[0].cpu)/float64(time.Millisecond), float64(countIn(r.st.reqAt, from, to))))
	}
	req := r.requests()
	return map[string]float64{
		"throughput_ops_s":          median(tput),
		"compose_p50_ms":            median(p50),
		"compose_p90_ms":            median(p90),
		"compose_p99_ms":            median(p99),
		"admit_ratio":               ratio(float64(r.st.admitted), float64(r.st.composes)),
		"mean_phi":                  ratio(r.st.phiSum, float64(r.st.admitted)),
		"overhead_msgs_per_request": ratio(float64(r.msgs.Total()), req),
		"cpu_ms_per_op":             median(cpu),
		"alloc_kb_per_op":           ratio(float64(r.proc.allocB)/1024, req),
	}
}

func (r *wireRun) quantiles(name string) qDelta {
	return qDelta{before: r.reg0.Quantiles[name], after: r.reg1.Quantiles[name]}
}

func (r *wireRun) counter(name string) float64 {
	return float64(r.reg1.Counters[name] - r.reg0.Counters[name])
}

// layers derives the per-layer metrics of a traced window from the
// benchmark's spans and the registry and counter deltas.
func (r *wireRun) layers() map[string]float64 {
	dispatch := r.quantiles("server.phase.compose.latency_quantiles_ms")
	find := r.quantiles("runtime.find.latency_quantiles_ms")
	migration := r.quantiles("runtime.migration.latency_quantiles_ms")
	req := r.requests()
	committed := float64(r.st.admitted + r.st.migrated)
	wallMs := float64(r.proc.wall) / float64(time.Millisecond)
	rtt := r.rttMs()
	live := make([]float64, len(r.ticks))
	for i, t := range r.ticks {
		live[i] = t.live
	}
	return map[string]float64{
		"server.compose_rtt_p50_ms":      percentile(rtt, 0.50),
		"server.compose_rtt_p99_ms":      percentile(rtt, 0.99),
		"server.teardown_rtt_p50_ms":     percentile(r.st.teardownMs, 0.50),
		"server.teardown_rtt_p99_ms":     percentile(r.st.teardownMs, 0.99),
		"server.commit_rtt_p50_ms":       percentile(r.st.commitMs, 0.50),
		"server.recompose_rtt_p50_ms":    percentile(r.st.recomposeMs, 0.50),
		"server.dispatch_compose_p50_ms": dispatch.quantile(0.50),
		"server.dispatch_compose_sum_ms": dispatch.sum(),
		"server.wire_residual_ms":        mean(rtt) - dispatch.mean(),
		"runtime.find_p50_ms":            find.quantile(0.50),
		"runtime.find_p99_ms":            find.quantile(0.99),
		"runtime.find_busy_frac":         ratio(find.sum(), wallMs),
		"runtime.outside_probe_ms":       dispatch.mean() - find.mean(),
		"runtime.migration_p50_ms":       migration.quantile(0.50),
		"runtime.find_fail_ratio":        ratio(r.counter("runtime.find_failures"), r.counter("runtime.finds")),
		"runtime.recompose_ok_ratio":     ratio(float64(r.st.migrated), float64(r.st.recomposes)),
		"core.probes_per_request":        ratio(float64(r.msgs.Probes), req),
		"core.returns_per_request":       ratio(float64(r.msgs.ProbeReturns), req),
		"core.discovery_per_request":     ratio(float64(r.msgs.Discovery), req),
		"core.probes_per_admit":          ratio(float64(r.msgs.Probes), committed),
		"state.updates_per_request":      ratio(float64(r.msgs.StateUpdates), req),
		"state.confirmations_per_admit":  ratio(float64(r.msgs.Confirmations), committed),
		"state.live_sessions_mean":       mean(live),
	}
}
