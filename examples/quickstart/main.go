// Quickstart: build a 3x3 multi-chip module of 20-qubit chiplets, walk
// the full paper pipeline — yield simulation, chiplet fabrication, KGD
// binning, MCM assembly — through the context-first API, compare the
// result against the equivalent 180-qubit monolithic device, and finish
// with a run through the Experiment registry. Pass -scenario to run the
// whole walk under a registered non-paper device world
// (`go run ./examples/quickstart -scenario future-fab`).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"chipletqc"
)

func main() {
	scen := flag.String("scenario", chipletqc.ScenarioPaper, "registered device scenario to simulate")
	flag.Parse()
	scn, err := chipletqc.LookupScenario(*scen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device scenario: %s (%s) — %s\n\n", scn.Name, scn.Fingerprint(), scn.Description)
	// Every Monte Carlo entry point is context-first: cancelling ctx
	// (e.g. on SIGINT, or a deadline) stops a campaign within one
	// in-flight trial per worker.
	ctx := context.Background()

	// Architectures: a 3x3 MCM of 20q chiplets and its 180q monolithic
	// counterpart.
	mcmDev, err := chipletqc.MCM(3, 3, 20)
	if err != nil {
		log.Fatal(err)
	}
	mono := chipletqc.Monolithic(180)
	fmt.Printf("MCM:        %s (%d qubits, %d chips, %d inter-chip links)\n",
		mcmDev.Name, mcmDev.N, mcmDev.Chips, len(mcmDev.Link))
	fmt.Printf("Monolithic: %s (%d qubits)\n\n", mono.Name, mono.N)

	// Collision-free yield at laser-tuned fabrication precision
	// (sigma_f = 0.014 GHz), Table I criteria.
	monoYield, err := chipletqc.SimulateYield(ctx, mono, chipletqc.YieldOptions{Scenario: scn.Name, Batch: 2000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monolithic 180q collision-free yield: %.4f\n", monoYield.Fraction())

	// Chiplet route: fabricate a batch, keep the collision-free bin,
	// assemble MCMs best-chiplets-first.
	batch, err := chipletqc.FabricateBatch(ctx, 20, 2000, chipletqc.BatchOptions{Scenario: scn.Name, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("20q chiplet collision-free yield:     %.4f\n", batch.Yield())

	mods, st, err := chipletqc.AssembleMCMs(ctx, batch, 3, 3, chipletqc.AssembleOptions{Scenario: scn.Name, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("complete collision-free MCMs:         %d (post-assembly yield %.4f)\n",
		st.MCMs, st.PostAssemblyYield)
	if monoYield.Fraction() > 0 {
		fmt.Printf("yield advantage:                      %.1fx\n\n",
			st.PostAssemblyYield/monoYield.Fraction())
	}

	// Average two-qubit infidelity of the best assembled module.
	if len(mods) > 0 {
		fmt.Printf("best MCM E_avg:  %.5f\n", mods[0].EAvg())
		fmt.Printf("worst MCM E_avg: %.5f\n", mods[len(mods)-1].EAvg())
	}

	// Compile a benchmark at 80% utilisation and report Table II style
	// gate counts.
	width := chipletqc.UtilizedQubits(mcmDev.N)
	circ := chipletqc.DecomposeCircuit(chipletqc.GHZ(width))
	res, err := chipletqc.Compile(circ, mcmDev)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGHZ-%d compiled onto the MCM: %s (1q / 2q / 2q critical), %d SWAPs inserted\n",
		width, res.Counts, res.SwapsInserted)

	// The Experiment registry makes every paper workload addressable by
	// name (the same catalog cmd/campaign runs: `campaign -list`). Each
	// run yields a self-describing Artifact with a stable text
	// rendering and a JSON form for machine consumption.
	fmt.Println("\nregistered experiments:")
	for _, e := range chipletqc.Experiments() {
		fmt.Printf("  %-10s %s\n", e.Name(), e.Describe())
	}

	// Device scenarios make the same registry run under any device
	// world: every workload accepts a scenario-bearing config, and the
	// resulting Artifact records which scenario (name + fingerprint)
	// produced it.
	fmt.Println("\nregistered device scenarios:")
	for _, sc := range chipletqc.Scenarios() {
		fmt.Printf("  %-20s %s\n", sc.Name, sc.Description)
	}
	exp, _ := chipletqc.LookupExperiment("eq1")
	cfg, err := chipletqc.ExperimentConfigFor(scn.Name, 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg.MonoBatch, cfg.ChipletBatch = 500, 500
	artifact, err := exp.Run(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := artifact.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
