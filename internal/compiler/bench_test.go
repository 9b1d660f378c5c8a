package compiler

import (
	"testing"

	"chipletqc/internal/circuit"
	"chipletqc/internal/mcm"
	"chipletqc/internal/qbench"
	"chipletqc/internal/topo"
)

// benchSuite returns the paper's largest Table II system, a 2x2 MCM of
// 90-qubit chiplets (360 qubits), and the seven-benchmark suite at its
// utilised width.
func benchSuite(b *testing.B) (*topo.Device, []*circuit.Circuit) {
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
	return dev, circuits
}

// BenchmarkCompile compiles the suite onto the 360-qubit system. One op
// is one pass over the suite.
func BenchmarkCompile(b *testing.B) {
	dev, circuits := benchSuite(b)
	b.ReportAllocs()
	for b.Loop() {
		for _, c := range circuits {
			if _, err := Compile(c, dev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRoute walks the same suite's routing on the same system,
// counting the visited two-qubit gates. Unlike BenchmarkCompile, whose
// package-level Compile builds the routing table per circuit, it routes
// through one Compiler, as Fig. 10 does. One op is one pass over the
// suite.
func BenchmarkRoute(b *testing.B) {
	dev, circuits := benchSuite(b)
	cp := New(dev, Options{})
	b.ReportAllocs()
	for b.Loop() {
		n := 0
		for _, c := range circuits {
			if err := cp.Route(c, func(u, v int) { n++ }); err != nil {
				b.Fatal(err)
			}
		}
		if n == 0 {
			b.Fatal("no two-qubit gates visited")
		}
	}
}
