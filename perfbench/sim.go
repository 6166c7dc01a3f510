package main

import (
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
)

const (
	// The sim platform is §4.1's at 800 IP / 400 overlay nodes; its seed
	// stays fixed so only the request stream varies with --seed.
	simIPNodes      = 800
	simOverlayNodes = 400
	// simRatePerMin overloads that platform (success rate about 0.43),
	// so the ledger is congested and most probe work is refused.
	simRatePerMin = 100
)

// simConfig sizes one run of the sim workload.
type simConfig struct {
	seed    int64
	minutes int           // simulated minutes per experiment.Run
	measure time.Duration // run experiment.Run until this much wall time has passed
	traced  bool
}

func simSystem() experiment.SystemConfig {
	sc := experiment.DefaultSystemConfig()
	sc.IPNodes = simIPNodes
	sc.OverlayNodes = simOverlayNodes
	return sc
}

// simSetup times BuildPlatform reps times and returns the median
// seconds and the last platform built.
func simSetup(reps int) (float64, *experiment.Platform, error) {
	times := make([]float64, 0, reps)
	var p *experiment.Platform
	for i := 0; i < reps; i++ {
		start := time.Now()
		var err error
		p, err = experiment.BuildPlatform(simSystem())
		if err != nil {
			return 0, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), p, nil
}

// simRep is one experiment.Run.
type simRep struct {
	res       *experiment.Result
	snap      obs.Snapshot
	wall, cpu time.Duration
}

// simRun is the experiment.Run calls of one window, all on one seed.
type simRun struct {
	cfg   simConfig
	reps  []simRep
	proc  procDelta
	spans []span // traced windows only
}

// runSim calls experiment.Run on the seed until cfg.measure has passed
// (at least once). Each call gets its own registry: the composer's
// walk-latency quantiles are what compose_p50_ms reads on sim.
func runSim(p *experiment.Platform, cfg simConfig) (*simRun, error) {
	out := &simRun{cfg: cfg}
	p0 := sampleProc()
	for len(out.reps) == 0 || time.Since(p0.at) < cfg.measure {
		reg := obs.NewRegistry()
		rc := experiment.DefaultRunConfig(simRatePerMin)
		rc.Seed = cfg.seed
		rc.Duration = time.Duration(cfg.minutes) * time.Minute
		rc.Registry = reg
		start := sampleProc()
		res, err := experiment.Run(p, rc)
		cost := since(start)
		if err != nil {
			return nil, fmt.Errorf("experiment.Run: %w", err)
		}
		if cfg.traced {
			out.spans = append(out.spans, span{trace: int64(len(out.reps)), name: spanRun,
				start: start.at.Sub(p0.at), dur: cost.wall})
		}
		out.reps = append(out.reps, simRep{res: res, snap: reg.Snapshot(), wall: cost.wall, cpu: cost.cpu})
	}
	out.proc = since(p0)
	return out, nil
}

// fingerprint renders a Result with every float in its shortest
// round-trip form, so equal fingerprints mean bit-identical results.
func fingerprint(res *experiment.Result) string { return fmt.Sprintf("%+v", *res) }

// check verifies the window's runs against a reference fingerprint
// (the first run of the workload) and the success rate's range, and
// returns the violations.
func (r *simRun) check(want string) []string {
	var errs []string
	for i, rep := range r.reps {
		if got := fingerprint(rep.res); got != want {
			errs = append(errs, fmt.Sprintf("sim: run %d (traced=%v) result differs from the first run", i, r.cfg.traced))
		}
		if s := rep.res.SuccessRate; !(s >= 0 && s <= 1) {
			errs = append(errs, fmt.Sprintf("sim: run %d success rate %v outside [0,1]", i, s))
		}
	}
	return errs
}

func (r *simRun) requests() float64 {
	total := int64(0)
	for _, rep := range r.reps {
		total += rep.res.Requests
	}
	return float64(total)
}

func (r *simRun) medianWall() time.Duration {
	walls := make([]float64, len(r.reps))
	for i, rep := range r.reps {
		walls[i] = float64(rep.wall)
	}
	return time.Duration(median(walls))
}

// endToEnd derives the sim's user-visible metrics. Every run repeats
// the same seed, so the paper's quantities come from the first run, and
// throughput and CPU per request are medians over runs.
// The compose percentiles are the composer's probe round trip on the
// simulated clock.
func (r *simRun) endToEnd() map[string]float64 {
	first := r.reps[0]
	rates := make([]float64, len(r.reps))
	cpu := make([]float64, len(r.reps))
	for i, rep := range r.reps {
		rates[i] = float64(rep.res.Requests) / rep.wall.Seconds()
		cpu[i] = float64(rep.cpu) / float64(time.Millisecond) / float64(rep.res.Requests)
	}
	rtt := qDelta{after: first.snap.Quantiles["core.walk.rtt_ms"]}
	req := r.requests()
	return map[string]float64{
		"throughput_ops_s":          median(rates),
		"compose_p50_ms":            rtt.quantile(0.50),
		"compose_p90_ms":            rtt.quantile(0.90),
		"compose_p99_ms":            rtt.quantile(0.99),
		"admit_ratio":               first.res.SuccessRate,
		"mean_phi":                  first.res.MeanPhi,
		"overhead_msgs_per_request": ratio(float64(first.res.Messages.Total()), float64(first.res.Requests)),
		"cpu_ms_per_op":             median(cpu),
		"alloc_kb_per_op":           ratio(float64(r.proc.allocB)/1024, req),
	}
}

// layers derives the per-layer metrics of a traced window.
func (r *simRun) layers() map[string]float64 {
	res := r.reps[0].res
	req := float64(res.Requests)
	committed := res.SuccessRate * req
	minutes := float64(r.cfg.minutes)
	m := res.Messages
	return map[string]float64{
		"core.probes_per_request":          ratio(float64(m.Probes), req),
		"core.returns_per_request":         ratio(float64(m.ProbeReturns), req),
		"core.discovery_per_request":       ratio(float64(m.Discovery), req),
		"core.probes_per_admit":            ratio(float64(m.Probes), committed),
		"state.updates_per_request":        ratio(float64(m.StateUpdates), req),
		"state.confirmations_per_admit":    ratio(float64(m.Confirmations), committed),
		"experiment.wall_s_per_sim_min":    r.medianWall().Seconds() / minutes,
		"experiment.aggregations_per_min":  float64(m.Aggregations) / minutes,
		"experiment.mean_probe_latency_ms": float64(res.MeanProbeLatency) / float64(time.Millisecond),
	}
}
