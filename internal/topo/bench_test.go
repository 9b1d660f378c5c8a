package topo

import "testing"

// BenchmarkMonolithicDevice builds the 500-qubit monolithic device, the
// largest in the Fig. 4 yield sweep, which rebuilds one device per size.
func BenchmarkMonolithicDevice(b *testing.B) {
	spec := MonolithicSpec(500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MonolithicDevice(spec)
	}
}
