package main

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
)

// The traced cold-request op replays core.CompileProgram's pass calls; its
// schedules must be byte-identical to those of the compile core.Do runs.
func TestReplayMatchesCompile(t *testing.T) {
	for _, x := range suiteInputs() {
		want, err := core.Compile(x.src, core.Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", x.name, err)
		}
		var steps []string
		got, err := replayCompile(x.src, func(name string, f func()) {
			steps = append(steps, name)
			f()
		})
		if err != nil {
			t.Fatalf("%s: replay: %v", x.name, err)
		}
		if got.Schedule.Dump() != want.Schedule.Dump() {
			t.Errorf("%s: replayed schedule differs from core.Compile's", x.name)
		}
		if got.Baseline.Dump() != want.Baseline.Dump() {
			t.Errorf("%s: replayed baseline differs from core.Compile's", x.name)
		}
		if got.Options != want.Options {
			t.Errorf("%s: options %+v, want %+v", x.name, got.Options, want.Options)
		}
		wantSteps := []string{"lint", "parser", "deps", "parallel", "decomp", "region", "irreg",
			"syncopt", "syncopt.baseline"}
		if !reflect.DeepEqual(steps, wantSteps) {
			t.Errorf("%s: steps %v, want %v", x.name, steps, wantSteps)
		}
	}
}

func opKeys(ops []op) []string {
	keys := make([]string, len(ops))
	for i, o := range ops {
		keys[i] = fmt.Sprintf("%d/%v", o.kernel, o.base)
	}
	return keys
}

func TestGeneratorSeeded(t *testing.T) {
	for _, paired := range []bool{false, true} {
		g := generator{seed: 7, n: 21, paired: paired}
		var first [][]string
		for c := 0; c < 4; c++ {
			a, b := g.cycle(c), g.cycle(c)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("paired=%v cycle %d: same seed gave different ops", paired, c)
			}
			first = append(first, opKeys(a))
		}
		if reflect.DeepEqual(first[0], first[1]) {
			t.Errorf("paired=%v: cycles 0 and 1 share an order", paired)
		}
		for seed := int64(0); seed < 5; seed++ {
			h := generator{seed: seed, n: 21, paired: paired}
			for c := 0; c < 4; c++ {
				got, want := opKeys(h.cycle(c)), append([]string(nil), first[c]...)
				sort.Strings(got)
				sort.Strings(want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("paired=%v seed %d cycle %d: multiset differs from seed 7's", paired, seed, c)
				}
			}
		}
	}
	// Paired cycles alternate which schedule of a kernel runs first.
	g := generator{seed: 3, n: 21, paired: true}
	firstBase := func(c, k int) bool {
		ops := g.cycle(c)
		for i := 0; i < len(ops); i += 2 {
			if ops[i].kernel != ops[i+1].kernel || ops[i].base == ops[i+1].base {
				t.Fatalf("cycle %d: ops %d and %d are not a base/opt pair", c, i, i+1)
			}
			if ops[i].kernel == k {
				return ops[i].base
			}
		}
		t.Fatalf("cycle %d: kernel %d missing", c, k)
		return false
	}
	for k := 0; k < 21; k++ {
		if firstBase(0, k) == firstBase(1, k) {
			t.Errorf("kernel %d: same schedule first in cycles 0 and 1", k)
		}
	}
}

func smallInputs(t *testing.T, names ...string) []input {
	var in []input
	for _, x := range suiteInputs() {
		for _, n := range names {
			if x.name == n {
				in = append(in, x)
			}
		}
	}
	if len(in) != len(names) {
		t.Fatalf("found %d of %v", len(in), names)
	}
	return in
}

// An op whose output disagrees with the set-up reference, or whose sync
// counts differ from the set-up run's, is counted as failed.
func TestPerturbedReferenceFails(t *testing.T) {
	for _, profiled := range []bool{false, true} {
		w := &teamRun{profiled: profiled}
		if err := w.setup(smallInputs(t, "jacobi1d", "spmvcsr"), nil, 0); err != nil {
			t.Fatal(err)
		}
		ops := []op{{kernel: 0}, {kernel: 1}}
		var samples []sample
		for i, o := range ops {
			samples = append(samples, timeOp(w, o, i+1, false, nil))
		}
		if n, f := tally(samples); n != 2 || f != 0 {
			t.Fatalf("profiled=%v: unperturbed: %d attempted, %d failed", profiled, n, f)
		}

		a := w.ks[0].ref.Array("A")
		a.Data[len(a.Data)/2] += 1
		w.ks[1].want[schedOpt].Barriers++
		samples = samples[:0]
		for i, o := range ops {
			samples = append(samples, timeOp(w, o, i+1, false, nil))
		}
		if n, f := tally(samples); n != 2 || f != 2 {
			t.Errorf("profiled=%v: perturbed: %d attempted, %d failed, want 2 failed", profiled, n, f)
		}
		if samples[0].wall <= 0 {
			t.Errorf("profiled=%v: failed op lost its latency", profiled)
		}
	}
}

// A traced cold-request op runs the same checks as the untraced one and
// records one span per layer, all children of the op's root span.
func TestColdRequestTracedSpans(t *testing.T) {
	w := &coldRequest{}
	if err := w.setup(smallInputs(t, "jacobi1d"), nil, 0); err != nil {
		t.Fatal(err)
	}
	if s := timeOp(w, op{}, 1, false, nil); !s.ok {
		t.Fatal("untraced op failed")
	}
	tr := newTracer()
	if s := timeOp(w, op{}, 2, true, tr); !s.ok {
		t.Fatal("traced op failed")
	}
	var names []string
	for _, sp := range tr.spans {
		if sp.Op != 2 || (sp.Parent == 0) != (sp.Name == "op") || sp.EndNS < sp.StartNS {
			t.Errorf("bad span %+v", sp)
		}
		names = append(names, sp.Name)
	}
	want := []string{"op", "lint", "parser", "deps", "parallel", "decomp", "region", "irreg",
		"syncopt", "syncopt.baseline", "compile", "exec.new_runner", "certify", "exec.run", "interp.verify"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("spans %v, want %v", names, want)
	}
}

func TestQuantileBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if q := quantile(xs, 0.9); q != 90 {
		t.Errorf("p90 = %v, want 90", q)
	}
	if b := beyond(100, 0.9); b != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", b)
	}
	if b := beyond(99, 0.9); b != 9 {
		t.Errorf("beyond(99, 0.9) = %d, want 9", b)
	}
}
