// Gesture: the neuromorphic event-stream pipeline end to end.
//
// Generates the synthetic DVS-Gesture dataset (11 motion classes encoded
// purely in ON/OFF event dynamics), trains the deeper conv-block
// classifier on it, deploys inference onto a faulty systolic array, and
// recovers accuracy with FalVolt — the hardest of the paper's three
// workloads.
//
//	go run ./examples/gesture
package main

import (
	"fmt"
	"log"
	"math/rand"

	"falvolt/internal/core"
	"falvolt/internal/datasets"
	"falvolt/internal/faults"
	"falvolt/internal/mitigation"
	"falvolt/internal/systolic"
)

func main() {
	const seed = 31
	const side = 64

	// 16x16 frames with three conv blocks (the quick model) keep the
	// example quick; the full 32x32 five-block spec is the paper-scale run.
	plan := core.BaselinePlan{
		Dataset: "dvsgesture", Quick: true, T: 6, Train: 220, Test: 88,
		ModelSeed: seed, TrainSeed: seed + 1, DataSeed: seed, Array: side,
		Config: core.BaselineConfig{Epochs: 16, LR: 0.02},
	}
	mspec, err := plan.ModelSpec()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training gesture classifier (%d classes: %v ...)\n",
		mspec.Classes, datasets.GestureClasses[:3])
	deps, baseAcc, err := plan.Build("", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline accuracy %.3f\n", baseAcc)
	lane := core.NewCellLane(deps, deps.Model, deps.Arr)

	fm, err := faults.GenerateRate(side, side, 0.30, faults.GenSpec{
		BitMode: faults.MSBBits, Pol: faults.StuckAt1, PolMode: faults.FixedPol,
	}, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		log.Fatal(err)
	}

	faulty, err := lane.Faulty(side, func(arr *systolic.Array) error { return arr.InjectFaults(fm) })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unmitigated on faulty array: %.3f\n", faulty)

	rep, err := lane.Mitigate(fm, mitigation.FalVolt, mitigation.Options{
		Epochs: 10, LR: 0.01, BatchSize: 16, ClipNorm: 5,
		Rng: rand.New(rand.NewSource(seed + 3)),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after FalVolt: %.3f (pruned %.1f%%)\n", rep.Accuracy, rep.PrunedFraction*100)
	for i, name := range deps.Model.SpikingNames {
		fmt.Printf("  %-7s Vth = %.3f\n", name, rep.Vths[i])
	}
}
