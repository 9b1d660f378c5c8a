package collision

import (
	"math"
	"math/rand"
	"testing"

	"chipletqc/internal/graph"
	"chipletqc/internal/runner"
	"chipletqc/internal/topo"
)

// coupledPair is a two-qubit device whose only coupling has control
// qubit ctl (the F2 qubit).
func coupledPair(ctl int) *topo.Device {
	d := &topo.Device{N: 2, Class: make([]topo.Class, 2), IsBridge: make([]bool, 2),
		Coord: make([][2]int, 2), ChipOf: make([]int, 2), Chips: 1, G: graph.New(2), Link: map[graph.Edge]bool{}}
	d.Class[ctl], d.Class[1-ctl] = topo.F2, topo.F0
	d.G.AddEdge(0, 1)
	return d
}

// scaledParams returns Table I with every half-width scaled by s.
func scaledParams(s float64) Params {
	p := DefaultParams()
	p.T1, p.T2, p.T3, p.T5, p.T6, p.T7 = s*p.T1, s*p.T2, s*p.T3, s*p.T5, s*p.T6, s*p.T7
	return p
}

// TestSafeZonesPaperValues pins the zones of Table I. The coupling
// zones are the straddle [a, 0] = [-0.330, 0] minus the type 3 band at
// a (to -0.300), the type 2 band at a/2 (-0.169 to -0.161) and the type
// 1 band at 0 (from -0.017); the pair zone lies between the type 5 band
// (0.017) and the type 6 band (0.305). Each is shrunk by the margin.
func TestSafeZonesPaperValues(t *testing.T) {
	edge, pair := safeZones(DefaultParams())
	want := []zone{{-0.300, -0.169}, {-0.161, -0.017}, {0.017, 0.305}}
	for i, z := range []zone{edge[0], edge[1], pair} {
		if math.Abs(z.lo-want[i].lo-zoneMargin) > 1e-15 || math.Abs(z.hi-want[i].hi+zoneMargin) > 1e-15 {
			t.Errorf("zone %d = %+v, want %+v shrunk by %g", i, z, want[i], zoneMargin)
		}
	}
	bad := DefaultParams()
	bad.T2 = math.NaN()
	if edge, pair := safeZones(bad); edge[0].lo <= edge[0].hi || edge[1].lo <= edge[1].hi || pair.lo <= pair.hi {
		t.Errorf("params failing Validate got zones %+v %+v, want none", edge, pair)
	}
}

// zoneProbes returns frequency pairs (f, f + delta) whose difference sits
// at each edge of the zones, at the band or straddle edge the zone
// guards, and up to four ulps either side of each, with f at random
// magnitudes from 2^-5 to 2^12 GHz (some beyond fastBound) and either
// sign.
func zoneProbes(rng *rand.Rand, zones ...zone) [][2]float64 {
	var out [][2]float64
	for _, z := range zones {
		if z.lo > z.hi {
			continue
		}
		for _, edge := range []float64{z.lo, z.hi, z.lo - zoneMargin, z.hi + zoneMargin} {
			for range 20 {
				f := math.Ldexp(rng.Float64()+0.5, rng.Intn(16)-4)
				if rng.Intn(2) == 0 {
					f = -f
				}
				for k := -4; k <= 4; k++ {
					delta := edge
					for i := 0; i < max(k, -k); i++ {
						delta = math.Nextafter(delta, math.Copysign(math.Inf(1), float64(k)))
					}
					out = append(out, [2]float64{f, f + delta})
				}
			}
		}
	}
	return out
}

func inZone(x float64, z zone) bool { return x >= z.lo && x <= z.hi }

// TestSafeZonesNeverOverrule probes every zone edge, as the fast path
// computes the difference, and requires the exact predicates to pass
// wherever the fast path would accept: a zone drawn wider than the
// allowed set fails here.
func TestSafeZonesNeverOverrule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	small := func(x float64) bool { return math.Abs(x) <= fastBound }
	for _, p := range []Params{DefaultParams(), scaledParams(0.5), scaledParams(3)} {
		edge, pair := safeZones(p)
		accepted := 0
		for _, fs := range zoneProbes(rng, edge[0], edge[1]) {
			fi, fj := fs[0], fs[1]
			if d := fj - fi; small(fi) && small(fj) && (inZone(d, edge[0]) || inZone(d, edge[1])) {
				accepted++
				if v := edgeViolationType(fi, fj, &p); v != 0 {
					t.Fatalf("%+v: control %v target %v (d %v) is fast-accepted but violates type %d", p, fi, fj, d, v)
				}
			}
		}
		for _, fs := range zoneProbes(rng, pair) {
			fj, fk := fs[0], fs[1]
			if e := math.Abs(fk - fj); small(fj) && small(fk) && inZone(e, pair) {
				accepted++
				if type5(fj, fk, &p) || type6(fj, fk, &p) {
					t.Fatalf("%+v: targets %v, %v (e %v) are fast-accepted but violate type 5 or 6", p, fj, fk, e)
				}
			}
		}
		if accepted == 0 {
			t.Fatalf("%+v: no probe was fast-accepted", p)
		}
	}
}

// TestSampleFreeFastPathAtZoneEdges runs the coupling probes through
// SampleFree on a two-qubit device, with either qubit as the control,
// and requires it to agree with Free.
func TestSampleFreeFastPathAtZoneEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	trial := runner.NewTrialRNG()
	f := make([]float64, 2)
	for _, p := range []Params{DefaultParams(), scaledParams(0.5), scaledParams(3)} {
		edge, _ := safeZones(p)
		for ctl := range 2 {
			c := NewChecker(coupledPair(ctl), p)
			for i, fs := range zoneProbes(rng, edge[0], edge[1]) {
				mu := []float64{fs[0], fs[0]}
				mu[1-ctl] = fs[1]
				if got, want := c.SampleFree(trial.At(1, i), mu, 0, f), c.Free(mu); got != want {
					t.Fatalf("%+v control %d: frequencies %v: SampleFree %t, Free %t", p, ctl, mu, got, want)
				}
			}
		}
	}
}
