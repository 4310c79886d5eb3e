package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/pool"
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(n-1, i))
}

// beyond is how many of n samples lie past the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - rankIndex(n, q) - 1 }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// seriesKey identifies one latency series: a kernel, and on paired
// workloads the schedule it ran.
type seriesKey struct {
	kernel int
	base   bool
}

// seriesMedians returns each series' median wall in ms, and the smallest
// series' sample count.
func seriesMedians(samples []sample) (map[seriesKey]float64, int) {
	walls := map[seriesKey][]float64{}
	for _, s := range samples {
		k := seriesKey{s.kernel, s.base}
		walls[k] = append(walls[k], ms(s.wall))
	}
	meds := map[seriesKey]float64{}
	fewest := math.MaxInt
	for k, xs := range walls {
		meds[k] = median(xs)
		fewest = min(fewest, len(xs))
	}
	return meds, fewest
}

func values(m map[seriesKey]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// endToEnd computes the metrics a user sees, from an untraced run.
func endToEnd(samples []sample, setups []float64, detail map[string]any) map[string]metric {
	var walls []float64
	var alloc uint64
	ok := 0
	for _, s := range samples {
		walls = append(walls, ms(s.wall))
		alloc += s.alloc
		if s.ok {
			ok++
		}
	}
	n := float64(len(samples))
	meds, fewest := seriesMedians(samples)
	// Every cycle issues the same work, so per-cycle throughput and CPU
	// are comparable; their medians shrug off a burst of interference.
	type cycleSum struct {
		ops       int
		wall, cpu time.Duration
	}
	byCycle := map[int]*cycleSum{}
	for _, s := range samples {
		c := byCycle[s.cycle]
		if c == nil {
			c = &cycleSum{}
			byCycle[s.cycle] = c
		}
		c.ops++
		c.wall += s.wall
		c.cpu += s.cpu
	}
	var rates, cpus []float64
	for _, c := range byCycle {
		rates = append(rates, float64(c.ops)/c.wall.Seconds())
		cpus = append(cpus, ms(c.cpu)/float64(c.ops))
	}
	detail["ops"] = len(samples)
	detail["series_min_samples"] = fewest
	detail["p90_beyond"] = beyond(len(walls), 0.9)
	return map[string]metric{
		"setup_s":         {median(setups), "s"},
		"ok_ratio":        {float64(ok) / n, "ratio"},
		"ops_per_s":       {median(rates), "1/s"},
		"op_ms.gmean":     {geomean(values(meds)), "ms"},
		"op_ms.p90":       {quantile(walls, 0.9), "ms"},
		"cpu_ms_per_op":   {median(cpus), "ms"},
		"alloc_mb_per_op": {float64(alloc) / 1e6 / n, "MB"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
	}
}

// layerMetrics computes the per-layer metrics of a traced run: span
// times and shares of the traced ops, counts per traced op, set-up span
// totals per repetition, and the span coverage and overhead of tracing.
func layerMetrics(in []input, paired bool, samples []sample, tr *tracer, reps int,
	pd pool.Stats, detail map[string]any) map[string]metric {
	ops := pick(samples, true)
	n := float64(len(ops))
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// Span totals by name, for ops and for set-up.
	opTotal := map[string]time.Duration{}
	opCount := map[string]int{}
	setupTotal := map[string]time.Duration{}
	byOp := map[int][]span{}
	for _, sp := range tr.spans {
		if sp.Op < 0 {
			setupTotal[sp.Name] += sp.dur()
			continue
		}
		opTotal[sp.Name] += sp.dur()
		opCount[sp.Name]++
		byOp[sp.Op] = append(byOp[sp.Op], sp)
	}
	layerMS := func(name string) float64 { return ms(opTotal[name]) / n }
	share := func(names ...string) float64 {
		var d time.Duration
		for _, nm := range names {
			d += opTotal[nm]
		}
		return float64(d) / float64(opTotal["op"])
	}
	for _, l := range []string{"lint", "parser", "deps", "parallel", "decomp", "region", "irreg",
		"syncopt", "compile", "certify", "profile"} {
		put(l+".ms", layerMS(l), "ms")
	}
	put("syncopt.baseline_ms", layerMS("syncopt.baseline"), "ms")
	put("interp.verify_ms", layerMS("interp.verify"), "ms")
	put("exec.new_runner_ms", layerMS("exec.new_runner"), "ms")
	put("remarks.report_ms", layerMS("remarks.report"), "ms")
	put("telemetry.observe_ms", layerMS("telemetry.observe"), "ms")
	put("certify.calls", float64(opCount["certify"])/n, "count")
	put("certify.share", share("certify"), "ratio")
	put("interp.share", share("interp.verify"), "ratio")
	put("syncopt.share", share("syncopt", "syncopt.baseline"), "ratio")
	put("exec.run_share", share("exec.run"), "ratio")
	for _, l := range []string{"compile", "certify", "verify", "runners", "run"} {
		put("setup."+l+"_s", (setupTotal["setup."+l]+setupTotal["setup."+l+".base"]).Seconds()/float64(reps), "s")
	}

	// Counts per traced op.
	var enums, bails, systems, ineqs, attempts, fallbacks, scans, waits, events, dropped float64
	var sync [2][4]float64 // [opt|base][barriers, counter waits, neighbor waits, dispatches]
	var nSched [2]float64
	var teams, overheads []float64
	runSpan := map[int]time.Duration{}
	for _, sp := range tr.spans {
		if sp.Op >= 0 && sp.Name == "exec.run" {
			runSpan[sp.Op] = sp.dur()
		}
	}
	var runMS []float64
	for _, d := range runSpan {
		runMS = append(runMS, ms(d))
	}
	for _, s := range ops {
		enums += float64(s.linear.Enumerations)
		bails += float64(s.linear.Bailouts)
		systems += float64(s.linear.Systems)
		ineqs += float64(s.linear.IneqsGenerated)
		if !s.hasRes {
			continue
		}
		r := s.res
		attempts += float64(r.attempts)
		if r.seqFallback {
			fallbacks++
		}
		scans += float64(r.scans)
		waits += float64(r.waitCrossings)
		events += float64(r.events)
		dropped += float64(r.dropped)
		k := schedOpt
		if s.base {
			k = schedBase
		}
		nSched[k]++
		for i, v := range []int64{r.barriers, r.counterWaits, r.neighbor, r.dispatches} {
			sync[k][i] += float64(v)
		}
		teams = append(teams, ms(r.team))
		overheads = append(overheads, ms(runSpan[s.id]-r.team))
	}
	put("linear.enumerations", enums/n, "count")
	put("linear.bailouts", bails/n, "count")
	put("linear.fm_systems", systems/n, "count")
	put("linear.ineqs_generated", ineqs/n, "count")
	put("exec.run_ms.p50", quantile(runMS, 0.5), "ms")
	put("exec.run_ms.p90", quantile(runMS, 0.9), "ms")
	put("exec.team_ms.p50", median(teams), "ms")
	put("exec.overhead_ms.p50", median(overheads), "ms")
	put("exec.attempts", attempts/n, "count")
	put("exec.seq_fallback_ratio", fallbacks/n, "ratio")
	put("exec.inspector.scans", scans/n, "count")
	put("exec.inspector.wait_ratio", safeDiv(waits, scans), "ratio")
	put("synctrace.events", events/n, "count")
	put("synctrace.dropped", dropped/n, "count")
	put("pool.reuse_ratio", safeDiv(float64(pd.Reuses), float64(pd.Checkouts)), "ratio")
	put("pool.cold_builds", float64(pd.ColdBuilds), "count")
	for k, sched := range []string{"opt", "base"} {
		for i, c := range []string{"barriers", "counter_waits", "neighbor_waits", "dispatches"} {
			put("spmdrt."+c+"."+sched, safeDiv(sync[k][i], nSched[k]), "count")
		}
	}
	put("barrier_reduction_pct", 0, "%")
	if paired && sync[schedBase][0] > 0 {
		// Every kernel runs equally often per cycle, so per-op means give
		// the suite-wide dynamic barrier totals up to a common factor.
		put("barrier_reduction_pct", 100*(1-(sync[schedOpt][0]/nSched[schedOpt])/(sync[schedBase][0]/nSched[schedBase])), "%")
	}

	// Per-kernel rows: paired speedup (base median / opt median, over the
	// run's traced and untraced cycles alike: a hot-run op's only span is
	// its Run call) and certify time (per traced op on cold-request, per
	// set-up elsewhere).
	meds, _ := seriesMedians(ops)
	all, _ := seriesMedians(samples)
	var speedups []float64
	certifyMS := map[string][]float64{}
	for _, sp := range tr.spans {
		if sp.Name == "certify" || sp.Name == "setup.certify" {
			certifyMS[sp.Kernel] = append(certifyMS[sp.Kernel], ms(sp.dur()))
		}
	}
	for i, x := range in {
		sp := 0.0
		if paired {
			sp = all[seriesKey{i, true}] / all[seriesKey{i, false}]
			speedups = append(speedups, sp)
		}
		put("kernel."+x.name+".speedup", sp, "ratio")
		put("kernel."+x.name+".certify_ms", median(certifyMS[x.name]), "ms")
	}
	put("spmd_speedup", geomean(speedups), "ratio")

	// Health of the traced run: the least-covered op, and traced minus
	// untraced op wall as a share of untraced.
	coverage := 1.0
	for _, sps := range byOp {
		var root, kids time.Duration
		for _, sp := range sps {
			if sp.Parent == 0 {
				root = sp.dur()
			} else {
				kids += sp.dur()
			}
		}
		if root > 0 {
			coverage = min(coverage, float64(kids)/float64(root))
		}
	}
	put("bench.span_coverage", coverage, "ratio")
	untraced, _ := seriesMedians(pick(samples, false))
	put("bench.trace_overhead_pct", 100*(geomean(values(meds))/geomean(values(untraced))-1), "%")
	_, fewest := seriesMedians(ops)
	detail["series_min_samples"] = fewest
	detail["traced_ops"] = len(ops)
	detail["untraced_ops"] = len(samples) - len(ops)
	detail["run_p90_beyond"] = beyond(len(runMS), 0.9)
	return out
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
