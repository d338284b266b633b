// Quickstart: the smallest end-to-end FalVolt walkthrough.
//
// It trains a tiny PLIF-SNN on synthetic MNIST, injects worst-case
// stuck-at faults into 30% of a 32x32 systolic array's PEs, shows the
// accuracy collapse, and then recovers it with FalVolt (fault-aware
// pruning + retraining with learned per-layer threshold voltages).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"falvolt/internal/core"
	"falvolt/internal/faults"
	"falvolt/internal/mitigation"
	"falvolt/internal/systolic"
)

func main() {
	const seed = 42

	// 1. Train the fault-free baseline. SyntheticMNIST stands in for MNIST
	//    (offline environment); the quick model is the paper's encoder +
	//    2 conv blocks + 2 FC classifier, scaled down. The plan also
	//    builds the clean 32x32 systolic accelerator it deploys onto.
	fmt.Println("training baseline...")
	deps, baseAcc, err := core.BaselinePlan{
		Dataset: "mnist", Quick: true, Train: 320, Test: 128,
		ModelSeed: seed, TrainSeed: seed + 1, DataSeed: seed, Array: 32,
		Config: core.BaselineConfig{Epochs: 12, LR: 0.02},
	}.Build("", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline accuracy: %.3f\n", baseAcc)
	lane := core.NewCellLane(deps, deps.Model, deps.Arr)

	// 2. Stuck-at-1 faults in the high-order accumulator bits of 30% of
	//    the array's PEs.
	fm, err := faults.GenerateRate(32, 32, 0.30, faults.GenSpec{
		BitMode: faults.MSBBits, Pol: faults.StuckAt1, PolMode: faults.FixedPol,
	}, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fm)

	faultyAcc, err := lane.Faulty(32, func(arr *systolic.Array) error { return arr.InjectFaults(fm) })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accuracy on the faulty array (no mitigation): %.3f\n", faultyAcc)

	// 3. FalVolt: prune the weights mapped to faulty PEs, bypass those
	//    PEs, retrain the rest while learning each layer's threshold.
	rep, err := lane.Mitigate(fm, mitigation.FalVolt, mitigation.Options{
		Epochs: 8, LR: 0.01, BatchSize: 16, ClipNorm: 5,
		Rng: rand.New(rand.NewSource(seed + 3)),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after FalVolt: accuracy %.3f (pruned %.1f%% of weights)\n",
		rep.Accuracy, rep.PrunedFraction*100)
	fmt.Println("optimized threshold voltages:")
	for i, name := range deps.Model.SpikingNames {
		fmt.Printf("  %-6s Vth = %.3f\n", name, rep.Vths[i])
	}
}
