package main

import (
	"context"
	"fmt"
	"reflect"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/deps"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irreg"
	"repro/internal/lint"
	"repro/internal/parallel"
	"repro/internal/parser"
	"repro/internal/profile"
	"repro/internal/region"
	"repro/internal/remarks"
	"repro/internal/spmdrt"
	"repro/internal/syncopt"
	"repro/internal/telemetry"
)

// workers is the team size of every run: one worker per core of the
// two-core host the benchmark targets.
const workers = 2

// outcome is what the measurement loop keeps from one op. check runs
// after the op's timed interval and reports whether the op's output was
// correct; res is nil when the op failed before a team ran.
type outcome struct {
	res   *exec.Result
	check func() bool
}

func failed() outcome { return outcome{check: func() bool { return false }} }

// workload is one closed-loop client. setup prepares everything the ops
// need (rep numbers the set-up repetition, for span attribution); run
// issues one op, recording spans into tr when tr is non-nil.
type workload interface {
	paired() bool
	setup(in []input, tr *tracer, rep int) error
	run(o op, tr *tracer, id int) outcome
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "cold-request":
		return &coldRequest{}, nil
	case "hot-run":
		return &teamRun{}, nil
	case "profiled-run":
		return &teamRun{profiled: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold-request, hot-run or profiled-run)", name)
}

// coldRequest is the certify-and-verify user: every op is a full
// lint → compile → certify → run request through core.Do, then a check of
// the output against the sequential interpreter.
type coldRequest struct{ in []input }

func (w *coldRequest) paired() bool { return false }

// setup validates the generated inputs and leases the P=2 team once so
// the pool holds a parked team before the first op.
func (w *coldRequest) setup(in []input, tr *tracer, rep int) error {
	w.in = in
	for _, x := range in {
		var err error
		tr.wrap(-(rep + 1), 0, "setup.validate", x.name, func() {
			if lint.HasFindings(lint.Source(x.src)) {
				err = fmt.Errorf("%s: lint findings", x.name)
				return
			}
			_, err = parser.Parse(x.src)
		})
		if err != nil {
			return err
		}
	}
	l, err := exec.DefaultPool().Checkout(workers, spmdrt.Central)
	if err != nil {
		return fmt.Errorf("lease team: %w", err)
	}
	l.Release(nil)
	return nil
}

func (w *coldRequest) run(o op, tr *tracer, id int) outcome {
	x := w.in[o.kernel]
	if tr != nil {
		return w.runTraced(x, tr, id)
	}
	res, err := core.Do(context.Background(), core.NewRequest(x.src,
		core.WithLint(), core.WithCertify(), core.WithWorkers(workers), core.WithParams(x.params)))
	if err != nil {
		return failed()
	}
	ok := res.Certify.Certified && verify(res.Runner.Compiled(), x, res.State)
	return outcome{res: &res.Result, check: func() bool { return ok }}
}

// runTraced issues the same request as run, but through the public calls
// core.Do makes — lint, the CompileProgram passes, the closure lowering,
// runner construction, the certify gate, the run — each under its own
// span, followed by the interpreter check.
func (w *coldRequest) runTraced(x input, tr *tracer, id int) outcome {
	root := tr.begin(id, 0, "op", x.name)
	defer tr.end(root)
	step := func(name string, f func()) { tr.wrap(id, root, name, x.name, f) }

	c, err := replayCompile(x.src, step)
	if err != nil {
		return failed()
	}
	step("compile", func() { _, err = c.Exe() })
	if err != nil {
		return failed()
	}
	var r *core.Runner
	step("exec.new_runner", func() {
		r, err = c.NewRunner(exec.Config{Workers: workers, Mode: exec.SPMD, Params: x.params})
	})
	if err != nil {
		return failed()
	}
	var v core.Verdict
	step("certify", func() { v = c.Verdict() })
	if !v.Certified {
		return failed()
	}
	var res *core.Result
	step("exec.run", func() { res, err = r.Run() })
	if err != nil {
		return failed()
	}
	var ok bool
	step("interp.verify", func() { ok = verify(c, x, res.State) })
	return outcome{res: &res.Result, check: func() bool { return ok }}
}

// replayCompile runs core.Compile with lint on: the same public pass calls
// as core.CompileProgram, in the same order, each wrapped by step.
func replayCompile(src string, step func(name string, f func())) (*core.Compiled, error) {
	var diags []lint.Diagnostic
	step("lint", func() { diags = lint.Source(src) })
	if lint.HasFindings(diags) {
		return nil, &core.LintError{Diags: diags}
	}
	var prog *ir.Program
	var err error
	step("parser", func() { prog, err = parser.Parse(src) })
	if err != nil {
		return nil, err
	}
	const minParam = 1
	var opt core.Options
	var ctx *deps.Context
	var par *parallel.Result
	var plan *decomp.Plan
	var info *region.Info
	var facts *irreg.Facts
	var an *comm.Analyzer
	var sched, base *syncopt.Schedule
	step("deps", func() { ctx = deps.NewContext(prog, minParam) })
	step("parallel", func() { par = parallel.Parallelize(ctx) })
	step("decomp", func() { plan = decomp.Build(prog, opt.Decomp) })
	step("region", func() { info = region.Classify(prog, plan.Wavefront) })
	step("irreg", func() { facts = irreg.Analyze(prog, info, minParam) })
	step("syncopt", func() {
		an = comm.New(ctx, plan, info)
		an.Facts = facts
		sched = syncopt.Build(an, opt.Sync)
	})
	step("syncopt.baseline", func() { base = syncopt.Build(an, syncopt.Options{Baseline: true}) })
	opt.MinParam = minParam
	return &core.Compiled{
		Prog: prog, Options: opt, Parallelized: par, Plan: plan, Facts: facts,
		Analyzer: an, Schedule: sched, Baseline: base,
	}, nil
}

// verify checks a run's final state against the sequential interpreter.
func verify(c *core.Compiled, x input, got *interp.State) bool {
	ref, err := c.RunSequential(x.params)
	return err == nil && exec.ComparableDiff(ref, got, c.Prog) <= x.tol
}

// prepared is one kernel ready for repeated runs: its runners (index
// schedOpt/schedBase), the interpreter's reference output, and the sync
// counts of the set-up run of each runner.
type prepared struct {
	in   input
	c    *core.Compiled
	run  [2]*core.Runner
	ref  *interp.State
	want [2]spmdrt.StatsSnapshot
}

const (
	schedOpt  = 0
	schedBase = 1
)

// teamRun is the runtime-only user. hot-run runs base and opt runners
// back to back; profiled-run runs traced opt runners and turns every run
// into a profile, a sync report and an aggregator observation.
type teamRun struct {
	profiled bool
	ks       []prepared
	agg      *telemetry.Aggregator
}

func (w *teamRun) paired() bool { return !w.profiled }

// setup compiles and certifies every kernel, computes its interpreter
// reference, builds its runners and runs each once to record the exact
// sync counts every later run must repeat.
func (w *teamRun) setup(in []input, tr *tracer, rep int) error {
	sid := -(rep + 1)
	w.agg = telemetry.New(0)
	w.ks = make([]prepared, len(in))
	for i, x := range in {
		p := &w.ks[i]
		p.in = x
		var err error
		tr.wrap(sid, 0, "setup.compile", x.name, func() { p.c, err = core.Compile(x.src, core.Options{}) })
		if err != nil {
			return fmt.Errorf("%s: compile: %w", x.name, err)
		}
		var v core.Verdict
		tr.wrap(sid, 0, "setup.certify", x.name, func() { v = p.c.Verdict() })
		if !v.Certified {
			return fmt.Errorf("%s: optimized schedule not certified", x.name)
		}
		if w.paired() {
			// Base runs pay for this verdict inside Runner.Run; it gates
			// nothing, because the certifier rejects some fork-join
			// baselines (tred2like, mg2level, tomcatvlike) whose runs
			// still match the interpreter.
			tr.wrap(sid, 0, "setup.certify.base", x.name, func() { p.c.BaselineVerdict() })
		}
		tr.wrap(sid, 0, "setup.verify", x.name, func() { p.ref, err = p.c.RunSequential(x.params) })
		if err != nil {
			return fmt.Errorf("%s: sequential: %w", x.name, err)
		}
		tr.wrap(sid, 0, "setup.runners", x.name, func() {
			p.run[schedOpt], err = p.c.NewRunner(exec.Config{
				Workers: workers, Mode: exec.SPMD, Params: x.params, Trace: w.profiled})
			if err == nil && w.paired() {
				p.run[schedBase], err = p.c.NewBaselineRunner(exec.Config{Workers: workers, Params: x.params})
			}
		})
		if err != nil {
			return fmt.Errorf("%s: runner: %w", x.name, err)
		}
		for s, r := range p.run {
			if r == nil {
				continue
			}
			var res *core.Result
			tr.wrap(sid, 0, "setup.run", x.name, func() { res, err = r.Run() })
			if err != nil {
				return fmt.Errorf("%s: set-up run: %w", x.name, err)
			}
			if exec.ComparableDiff(p.ref, res.State, p.c.Prog) > x.tol {
				return fmt.Errorf("%s: set-up run diverges from the sequential reference", x.name)
			}
			p.want[s] = res.Stats
		}
	}
	return nil
}

func (w *teamRun) run(o op, tr *tracer, id int) outcome {
	p := &w.ks[o.kernel]
	s := schedOpt
	if o.base {
		s = schedBase
	}
	r := p.run[s]
	root := tr.begin(id, 0, "op", p.in.name)
	step := func(name string, f func()) { tr.wrap(id, root, name, p.in.name, f) }
	var res *core.Result
	var err error
	step("exec.run", func() { res, err = r.Run() })
	if err != nil {
		tr.end(root)
		return failed()
	}
	reported := true
	if w.profiled {
		var prof *profile.Profile
		var rep *remarks.Report
		step("profile", func() { prof = r.Profile(res) })
		step("remarks.report", func() { rep = r.SyncReport(res) })
		step("telemetry.observe", func() {
			w.agg.Observe(telemetry.RunSummary{
				TraceID: telemetry.NewTraceID(), Program: p.in.name, Mode: "opt",
				Workers: workers, Backend: r.Backend().String(), Barrier: r.BarrierName(),
				ElapsedNS: res.Elapsed.Nanoseconds(), Outcome: telemetry.OutcomeOK,
				Attempts: res.Attempts, SeqFallback: res.SeqFallback, Pooled: res.Pooled,
			}, prof, nil)
		})
		reported = prof != nil && rep != nil
	}
	tr.end(root)
	return outcome{res: &res.Result, check: func() bool {
		return reported && check(p, s, res.State, res.Stats)
	}}
}

// check compares one run against the set-up reference: the final state
// within the kernel's tolerance, and every sync count exactly.
func check(p *prepared, s int, st *interp.State, stats spmdrt.StatsSnapshot) bool {
	return exec.ComparableDiff(p.ref, st, p.c.Prog) <= p.in.tol && reflect.DeepEqual(stats, p.want[s])
}
