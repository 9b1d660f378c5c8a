package collision

import (
	"math"
	"math/rand"
	"testing"

	"chipletqc/internal/topo"
)

// FuzzCheckPair fuzzes edgeViolationType, the pairwise criteria (types
// 1-4), over arbitrary frequency pairs, asserting non-finite rejection and consistency with
// the exhaustive violation enumeration.
func FuzzCheckPair(f *testing.F) {
	p := DefaultParams()
	a := p.Anharmonicity
	// Seed corpus: interior points, every threshold boundary (both the
	// inside and outside edge), and non-finite inputs.
	f.Add(5.0, 5.2)
	f.Add(5.0, 5.0)                         // type 1 dead centre
	f.Add(5.0, 5.0+p.T1)                    // type 1 boundary (inclusive)
	f.Add(5.0, 5.0+math.Nextafter(p.T1, 1)) // just outside type 1
	f.Add(5.0, 5.0+a/2)                     // type 2 dead centre
	f.Add(5.0, 5.0+a/2+p.T2)                // type 2 boundary
	f.Add(5.0, 5.0-a)                       // type 3 (fj = fi - a)
	f.Add(5.0, 5.0+a-p.T3)                  // type 3 boundary
	f.Add(5.0, 5.0+a)                       // type 4 lower edge of straddle
	f.Add(5.0, 4.0)                         // type 4: far below straddle
	f.Add(math.NaN(), 5.0)
	f.Add(5.0, math.NaN())
	f.Add(math.Inf(1), math.Inf(1))
	f.Add(math.Inf(-1), 5.0)

	f.Fuzz(func(t *testing.T, fi, fj float64) {
		got := edgeViolationType(fi, fj, &p)
		nonFinite := math.IsNaN(fi) || math.IsInf(fi, 0) ||
			math.IsNaN(fj) || math.IsInf(fj, 0)
		if nonFinite {
			if got != NonFinite {
				t.Fatalf("edgeViolationType(%v, %v) = %d, want NonFinite for non-finite input", fi, fj, got)
			}
			return
		}
		if got == NonFinite {
			t.Fatalf("edgeViolationType(%v, %v) = NonFinite for finite input", fi, fj)
		}
		// Consistency with the exhaustive enumeration: edgeViolationType returns
		// 0 iff no pairwise criterion triggers, and otherwise the first
		// (lowest-numbered) triggered criterion.
		all := appendEdgeViolations(nil, 0, 1, fi, fj, &p)
		if (got == 0) != (len(all) == 0) {
			t.Fatalf("edgeViolationType(%v, %v) = %d but enumeration found %v", fi, fj, got, all)
		}
		if got != 0 && all[0].Type != got {
			t.Fatalf("edgeViolationType(%v, %v) = %d but first enumerated violation is %v", fi, fj, got, all[0])
		}
		// Threshold semantics spot-checks on criteria 1-3 (inclusive <=).
		if d := math.Abs(fi - fj); d <= p.T1 && got != 1 {
			t.Fatalf("|fi-fj| = %v <= T1 must be type 1, got %d", d, got)
		}
	})
}

// FuzzCheckTriple fuzzes pairViolationType, the spectator criteria
// (types 5-7).
func FuzzCheckTriple(f *testing.F) {
	p := DefaultParams()
	a := p.Anharmonicity
	f.Add(5.0, 5.2, 5.4)
	f.Add(5.0, 5.1, 5.1)         // type 5 dead centre
	f.Add(5.0, 5.1, 5.1+p.T5)    // type 5 boundary
	f.Add(5.0, 5.1, 5.1-a)       // type 6 (fk = fj - a)
	f.Add(5.0, 5.1+a, 5.1)       // type 6 mirrored
	f.Add(5.0, 5.0+a/2, 5.0+a/2) // type 7 dead centre (2fi+a = fj+fk)
	f.Add(5.0, 4.0, 6.0+a+p.T7)  // type 7 boundary
	f.Add(math.NaN(), 5.0, 5.3)
	f.Add(5.0, math.Inf(1), 5.3)
	f.Add(5.0, 5.3, math.Inf(-1))

	f.Fuzz(func(t *testing.T, fi, fj, fk float64) {
		got := pairViolationType(fi, fj, fk, &p)
		nonFinite := math.IsNaN(fi) || math.IsInf(fi, 0) ||
			math.IsNaN(fj) || math.IsInf(fj, 0) ||
			math.IsNaN(fk) || math.IsInf(fk, 0)
		if nonFinite {
			if got != NonFinite {
				t.Fatalf("pairViolationType(%v, %v, %v) = %d, want NonFinite", fi, fj, fk, got)
			}
			return
		}
		if got == NonFinite {
			t.Fatalf("pairViolationType(%v, %v, %v) = NonFinite for finite input", fi, fj, fk)
		}
		cp := topo.ControlPair{Control: 0, T1: 1, T2: 2}
		all := appendPairViolations(nil, &cp, fi, fj, fk, &p)
		if (got == 0) != (len(all) == 0) {
			t.Fatalf("pairViolationType(%v, %v, %v) = %d but enumeration found %v", fi, fj, fk, got, all)
		}
		if got != 0 && all[0].Type != got {
			t.Fatalf("pairViolationType(%v, %v, %v) = %d but first enumerated violation is %v",
				fi, fj, fk, got, all[0])
		}
		if d := math.Abs(fj - fk); d <= p.T5 && got != 5 {
			t.Fatalf("|fj-fk| = %v <= T5 must be type 5, got %d", d, got)
		}
	})
}

// TestFreeMatchesViolations is the property test tying the two checker
// entry points together: on random frequency vectors (including
// occasional NaN/Inf injections), Free(f) holds exactly when
// Violations(f) is empty, and FreeInto agrees and reports a violation
// that the enumeration also found.
func TestFreeMatchesViolations(t *testing.T) {
	d := topo.MonolithicDevice(topo.ChipSpec{DenseRows: 3, Width: 8})
	c := NewChecker(d, DefaultParams())
	r := rand.New(rand.NewSource(7))
	f := make([]float64, d.N)
	var v Violation
	for trial := 0; trial < 3000; trial++ {
		for q := range f {
			f[q] = 4.6 + r.Float64() // wide enough to trigger every type
		}
		switch trial % 10 {
		case 7:
			f[r.Intn(d.N)] = math.NaN()
		case 8:
			f[r.Intn(d.N)] = math.Inf(1)
		case 9:
			f[r.Intn(d.N)] = math.Inf(-1)
		}
		all := c.Violations(f)
		free := c.Free(f)
		if free != (len(all) == 0) {
			t.Fatalf("trial %d: Free = %v but %d violations", trial, free, len(all))
		}
		if c.FreeInto(&v, f) != free {
			t.Fatalf("trial %d: FreeInto disagrees with Free", trial)
		}
		if !free {
			found := false
			for _, w := range all {
				if w == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: FreeInto reported %v, absent from enumeration %v",
					trial, v, all)
			}
		}
	}
}
