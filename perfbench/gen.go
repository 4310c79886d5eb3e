package main

import (
	"math/rand"

	"repro/internal/suite"
)

// input is one suite kernel at its standard Params: everything the
// program under test receives for an op.
type input struct {
	name   string
	src    string
	params map[string]int64
	tol    float64
}

// suiteInputs returns the 21 suite kernels (16 regular, then 5
// irregular) in presentation order.
func suiteInputs() []input {
	ks := append(suite.Kernels(), suite.IrregularKernels()...)
	in := make([]input, len(ks))
	for i, k := range ks {
		in[i] = input{name: k.Name, src: k.Source, params: k.Params, tol: k.Tol}
	}
	return in
}

// op is one unit of closed-loop work: a kernel index into the inputs and,
// on paired workloads, which schedule runs.
type op struct {
	kernel int
	base   bool
}

// generator issues whole cycles. Every cycle holds each kernel once (once
// per schedule on paired workloads); the seed picks only the order within
// a cycle, so every seed issues the same multiset of work per cycle.
type generator struct {
	seed   int64
	n      int
	paired bool
}

// cycle returns cycle i's ops. The order is a function of (seed, i) alone.
// Paired workloads emit each kernel's two runs back to back and alternate
// which goes first from one cycle to the next (ABBA), starting from a
// seed-chosen side.
func (g generator) cycle(i int) []op {
	rng := rand.New(rand.NewSource(g.seed*1_000_003 + int64(i)))
	perm := rng.Perm(g.n)
	ops := make([]op, 0, g.n*2)
	for _, k := range perm {
		if !g.paired {
			ops = append(ops, op{kernel: k})
			continue
		}
		baseFirst := (uint64(g.seed)+uint64(i)+uint64(k))%2 == 0
		ops = append(ops, op{kernel: k, base: baseFirst}, op{kernel: k, base: !baseFirst})
	}
	return ops
}
