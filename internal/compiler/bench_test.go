package compiler

import (
	"testing"

	"chipletqc/internal/circuit"
	"chipletqc/internal/mcm"
	"chipletqc/internal/qbench"
	"chipletqc/internal/topo"
)

// BenchmarkCompile compiles the seven-benchmark suite onto the paper's
// largest Table II system, a 2x2 MCM of 90-qubit chiplets (360 qubits).
// One op is one pass over the suite.
func BenchmarkCompile(b *testing.B) {
	spec, err := topo.SpecForQubits(90)
	if err != nil {
		b.Fatal(err)
	}
	dev := mcm.MustBuild(mcm.Grid{Rows: 2, Cols: 2, Spec: spec})
	width := qbench.UtilizedQubits(dev.N)
	var circuits []*circuit.Circuit
	for _, bs := range qbench.Suite() {
		circuits = append(circuits, bs.Generate(width, 1))
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, c := range circuits {
			if _, err := Compile(c, dev); err != nil {
				b.Fatal(err)
			}
		}
	}
}
