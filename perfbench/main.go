// Command perfbench is the repository's end-to-end benchmark: three
// closed-loop workloads, each a single client at P=2 issuing whole cycles
// of the 21 suite kernels.
//
//	perfbench --workload hot-run --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced cycles, writes the traced cycles' layer
// spans under .bench_build/spans/, and prints the per-layer metrics. The
// last line of standard output is always the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/exec"
	"repro/internal/linear"
	"repro/internal/pool"
)

// setupReps is how many times each workload sets up; setup_s is the
// median. Set-up is cheap on cold-request and ~10 s elsewhere.
var setupReps = map[string]int{"cold-request": 15, "hot-run": 3, "profiled-run": 3}

// minOps is the fewest timed ops a run issues, so that op_ms.p90 has at
// least ten samples beyond it; a run ends at the first whole cycle after
// both --seconds and minOps are reached.
const minOps = 100

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "cold-request, hot-run or profiled-run")
	seed := fs.Int64("seed", 1, "input generator seed")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	res, err := benchmark(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, suiteInputs())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res.detail)
	if err == nil {
		fmt.Printf("{\"detail\":%s}\n", out)
		out, err = json.Marshal(res.result)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type report struct {
	result result
	detail map[string]any
}

// sample is one timed op as the loop saw it.
type sample struct {
	op
	id         int
	traced, ok bool
	wall, cpu  time.Duration
	alloc      uint64
	res        runInfo
	linear     linear.CostSnapshot
	hasRes     bool
	cycle      int
}

// runInfo is the part of an exec.Result the per-layer metrics read.
type runInfo struct {
	team                             time.Duration
	attempts                         int
	seqFallback                      bool
	barriers, counterWaits, neighbor int64
	dispatches                       int64
	scans, waitCrossings             int64
	events, dropped                  int64
}

func infoOf(r *exec.Result) runInfo {
	ri := runInfo{team: r.Elapsed, attempts: r.Attempts, seqFallback: r.SeqFallback,
		barriers: r.Stats.Barriers, counterWaits: r.Stats.CounterWaits,
		neighbor: r.Stats.NeighborWaits, dispatches: r.Stats.Dispatches}
	for _, s := range r.Inspector {
		ri.scans += s.Scans
		ri.waitCrossings += s.WaitCrossings
	}
	if r.Trace != nil {
		ri.events, ri.dropped = r.Trace.Recorded(), r.Trace.Dropped()
	}
	return ri
}

// benchmark sets the workload up setupReps times, runs one untimed
// warm-up cycle, then times whole cycles until both the duration and
// minOps are reached. Traced runs alternate untraced and traced cycles
// and count only traced cycles towards minOps.
func benchmark(name string, seed int64, dur time.Duration, traced bool, in []input) (*report, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	reps := setupReps[name]
	setups := make([]float64, reps)
	for rep := range setups {
		t0 := time.Now()
		if err := w.setup(in, tr, rep); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups[rep] = time.Since(t0).Seconds()
	}
	gen := generator{seed: seed, n: len(in), paired: w.paired()}
	for _, o := range gen.cycle(0) {
		w.run(o, nil, 0)
	}

	pool0 := exec.DefaultPool().Snapshot()
	var samples []sample
	start := time.Now()
	counted, id := 0, 0
	for c := 1; time.Since(start) < dur || counted < minOps; c++ {
		tracedCycle := traced && c%2 == 0
		for _, o := range gen.cycle(c) {
			id++
			s := timeOp(w, o, id, tracedCycle, tr)
			s.cycle = c
			samples = append(samples, s)
			if tracedCycle == traced {
				counted++
			}
		}
	}
	poolDelta := poolSub(exec.DefaultPool().Snapshot(), pool0)

	rep := &report{detail: map[string]any{"workload": name, "seed": seed, "setup_s": setups}}
	var ms map[string]metric
	if traced {
		if err := tr.write(fmt.Sprintf(".bench_build/spans/%s-seed%d.json", name, seed)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		ms = layerMetrics(in, w.paired(), samples, tr, reps, poolDelta, rep.detail)
	} else {
		ms = endToEnd(samples, setups, rep.detail)
	}
	attempted, fails := tally(pick(samples, traced))
	rep.result = result{Correct: fails == 0, Attempted: attempted, Failed: fails, Metrics: ms}
	return rep, nil
}

// tally counts the attempted and the failed ops.
func tally(samples []sample) (attempted, failed int) {
	for _, s := range samples {
		if !s.ok {
			failed++
		}
	}
	return len(samples), failed
}

// timeOp issues one op. Only the op itself is timed; the correctness check
// and the per-op counter reads sit outside the interval.
func timeOp(w workload, o op, id int, traced bool, tr *tracer) sample {
	if !traced {
		tr = nil
	}
	s := sample{op: o, id: id, traced: traced}
	lin0 := linear.Costs()
	cpu0, alloc0 := cpuTime(), allocBytes()
	t0 := time.Now()
	out := w.run(o, tr, id)
	s.wall = time.Since(t0)
	s.cpu, s.alloc = cpuTime()-cpu0, allocBytes()-alloc0
	s.linear = linear.Costs().Sub(lin0)
	if out.res != nil {
		s.res, s.hasRes = infoOf(out.res), true
	}
	s.ok = out.check()
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func poolSub(a, b pool.Stats) pool.Stats {
	return pool.Stats{Checkouts: a.Checkouts - b.Checkouts, Reuses: a.Reuses - b.Reuses,
		ColdBuilds: a.ColdBuilds - b.ColdBuilds}
}

// pick returns the samples of traced (or untraced) cycles.
func pick(samples []sample, traced bool) []sample {
	var out []sample
	for _, s := range samples {
		if s.traced == traced {
			out = append(out, s)
		}
	}
	return out
}
