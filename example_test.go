package chipletqc_test

// Runnable documentation examples for the public API. Each example is
// deterministic (fixed seeds) so its output doubles as a regression
// check under `go test`.

import (
	"context"
	"fmt"
	"os"
	"strings"

	"chipletqc"
)

// ExampleMCM shows MCM construction and its structural accounting.
func ExampleMCM() {
	dev, err := chipletqc.MCM(3, 3, 20)
	if err != nil {
		panic(err)
	}
	fmt.Println(dev.Name)
	fmt.Println("qubits:", dev.N)
	fmt.Println("chips:", dev.Chips)
	fmt.Println("inter-chip links:", len(dev.Link))
	fmt.Println("valid:", dev.Validate() == nil)
	// Output:
	// mcm-3x3-20q
	// qubits: 180
	// chips: 9
	// inter-chip links: 24
	// valid: true
}

// ExampleChipletSizes lists the paper's chiplet catalog.
func ExampleChipletSizes() {
	fmt.Println(chipletqc.ChipletSizes())
	// Output:
	// [10 20 40 60 90 120 160 200 250]
}

// ExampleBuildChiplet renders the 10-qubit chiplet's heavy-hex pattern:
// dense-row classes 0/1/2 (F0/F1/F2) and B for the bridge link qubits.
func ExampleBuildChiplet() {
	spec, err := chipletqc.ChipletSpec(10)
	if err != nil {
		panic(err)
	}
	fmt.Print(chipletqc.BuildChiplet(spec).Render())
	// Output:
	// 0-2-1-2-0-2-1-2
	// B       B
}

// ExampleCollisionFree evaluates the Table I criteria on the ideal
// (noise-free) frequency assignment.
func ExampleCollisionFree() {
	dev := chipletqc.Monolithic(20)
	ideal := chipletqc.SampleFrequencies(1, chipletqc.FabModel{
		Plan:  chipletqc.AsymmetricFreqPlan(5.0, 0.06, 0.06),
		Sigma: 0, // no fabrication noise
	}, dev)
	fmt.Println("ideal pattern collision-free:", chipletqc.CollisionFree(dev, ideal))
	fmt.Println("violations:", len(chipletqc.Collisions(dev, ideal)))
	// Output:
	// ideal pattern collision-free: true
	// violations: 0
}

// ExampleGHZ generates and lowers a GHZ circuit, reporting the paper's
// Table II metrics.
func ExampleGHZ() {
	c := chipletqc.DecomposeCircuit(chipletqc.GHZ(5))
	fmt.Println("counts (1q / 2q / 2q critical):", c.Counts())
	// Output:
	// counts (1q / 2q / 2q critical): 1 / 4 / 4
}

// ExampleQASM shows OpenQASM 2.0 serialisation.
func ExampleQASM() {
	c := chipletqc.NewCircuit(2)
	c.H(0)
	c.CX(0, 1)
	fmt.Print(chipletqc.QASM(c))
	// Output:
	// OPENQASM 2.0;
	// include "qelib1.inc";
	// qreg q[2];
	// h q[0];
	// cx q[0],q[1];
}

// ExampleReadQASM parses a circuit back from QASM text.
func ExampleReadQASM() {
	src := `OPENQASM 2.0;
qreg q[3];
h q[0];
cx q[0],q[1];
rz(pi/2) q[2];
`
	c, err := chipletqc.ReadQASM(strings.NewReader(src))
	if err != nil {
		panic(err)
	}
	fmt.Println("qubits:", c.NumQubits, "gates:", len(c.Gates))
	// Output:
	// qubits: 3 gates: 3
}

// ExampleSimulate validates a Bell-pair circuit on the statevector
// simulator.
func ExampleSimulate() {
	c := chipletqc.NewCircuit(2)
	c.H(0)
	c.CX(0, 1)
	s := chipletqc.Simulate(c)
	fmt.Printf("P(00) = %.2f, P(11) = %.2f\n", s.Probability(0b00), s.Probability(0b11))
	// Output:
	// P(00) = 0.50, P(11) = 0.50
}

// ExampleRecommendCodeDistance sizes a surface-style code for a physical
// error rate an order of magnitude under threshold.
func ExampleRecommendCodeDistance() {
	d, err := chipletqc.RecommendCodeDistance(0.00045, chipletqc.HeavyHexECCThreshold, 1e-6)
	if err != nil {
		panic(err)
	}
	fmt.Println("distance:", d)
	// Output:
	// distance: 11
}

// ExampleFig2 reproduces the wafer-output illustration.
func ExampleFig2() {
	r := chipletqc.Fig2(9, 4, 7)
	fmt.Printf("monolithic: %d/%d good; chiplets: %d/%d good\n",
		r.MonoGood, r.MonoDies, r.ChipletGood, r.ChipletDies)
	// Output:
	// monolithic: 2/9 good; chiplets: 29/36 good
}

// ExampleSimulateYield shows the context-first Monte Carlo API with
// pointer options: an explicit Sigma of 0 (noise-free fabrication) is
// distinguishable from "use the default", so every device survives.
func ExampleSimulateYield() {
	dev := chipletqc.Monolithic(60)
	res, err := chipletqc.SimulateYield(context.Background(), dev, chipletqc.YieldOptions{
		Batch: 200,
		Seed:  1,
		Sigma: chipletqc.Ptr(0.0), // noise-free: expressible since v1
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("noise-free yield: %.0f%% over %d trials\n", 100*res.Fraction(), res.Batch)
	// Output:
	// noise-free yield: 100% over 200 trials
}

// ExampleLookupExperiment runs a paper workload by name through the
// Experiment registry and renders its self-describing artifact — the
// same machinery behind `campaign -experiments fig2 -out results`.
func ExampleLookupExperiment() {
	exp, ok := chipletqc.LookupExperiment("fig2")
	if !ok {
		panic("fig2 not registered")
	}
	artifact, err := exp.Run(context.Background(), chipletqc.QuickExperimentConfig(1))
	if err != nil {
		panic(err)
	}
	fmt.Println(artifact.Name, "-", artifact.Description)
	fmt.Print(artifact.Payload.Title)
	// Output:
	// fig2 - illustrative wafer output, monolithic vs chiplet
	// Fig. 2: wafer output with 7 fatal defects per batch
}

// ExampleRegisterScenario derives a custom device world from the paper
// baseline and registers it, making it addressable by name from every
// experiment, the campaign engine, and the CLIs (-scenario/-scenarios).
func ExampleRegisterScenario() {
	custom := chipletqc.PaperScenario()
	custom.Name = "example-tighter-fab"
	custom.Description = "paper device world fabricated at sigma 0.010"
	custom.Fab.Sigma = 0.010
	chipletqc.RegisterScenario(custom)

	s, err := chipletqc.LookupScenario("example-tighter-fab")
	if err != nil {
		panic(err)
	}
	fmt.Println(s.Name)
	fmt.Println("device world differs from paper:",
		s.Fingerprint() != chipletqc.PaperScenario().Fingerprint())
	// Output:
	// example-tighter-fab
	// device world differs from paper: true
}

// ExampleRunCampaign sweeps an experiment across two device scenarios
// against a fingerprint-keyed artifact store: the first run simulates
// every cell, the identical second run is served entirely from the
// store — the resume/caching machinery behind the cmd/campaign binary.
func ExampleRunCampaign() {
	dir, err := os.MkdirTemp("", "campaign-example-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	store, err := chipletqc.OpenStore(dir)
	if err != nil {
		panic(err)
	}

	plan := chipletqc.CampaignPlan{
		Experiments: []string{"fig2"},
		Scenarios:   []string{"paper", "future-fab"},
		Seed:        1,
		Quick:       true,
	}
	cold, err := chipletqc.RunCampaign(context.Background(), plan, chipletqc.CampaignOptions{Store: store})
	if err != nil {
		panic(err)
	}
	warm, err := chipletqc.RunCampaign(context.Background(), plan, chipletqc.CampaignOptions{Store: store})
	if err != nil {
		panic(err)
	}
	fmt.Printf("cold: %d simulated, %d from the store\n", cold.Executed, cold.Cached)
	fmt.Printf("warm: %d simulated, %d from the store\n", warm.Executed, warm.Cached)
	// Output:
	// cold: 2 simulated, 0 from the store
	// warm: 0 simulated, 2 from the store
}
