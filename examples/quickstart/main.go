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
	"falvolt/internal/datasets"
	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/mitigation"
	"falvolt/internal/snn"
	"falvolt/internal/systolic"
)

func main() {
	const seed = 42

	// 1. A small dataset and model. SyntheticMNIST stands in for MNIST
	//    (offline environment); the model is the paper's encoder + 2 conv
	//    blocks + 2 FC classifier, scaled down.
	ds, err := datasets.SyntheticMNIST(datasets.Config{Train: 320, Test: 128, T: 4, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	spec := snn.MNISTSpec()
	spec.EncoderC, spec.BlockC, spec.FCHidden = 4, []int{8, 8}, 32
	model, err := snn.Build(spec, rand.New(rand.NewSource(seed)))
	if err != nil {
		log.Fatal(err)
	}

	// 2. Train the fault-free baseline.
	fmt.Println("training baseline...")
	baseAcc, err := core.TrainBaseline(model, ds.Train, ds.Test, core.BaselineConfig{
		Epochs: 12, LR: 0.02, Rng: rand.New(rand.NewSource(seed + 1)),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline accuracy: %.3f\n", baseAcc)

	// 3. A systolic accelerator with stuck-at-1 faults in the high-order
	//    accumulator bits of 30% of its PEs.
	arr := systolic.MustNew(systolic.Config{Rows: 32, Cols: 32, Format: fixed.Q16x16, Saturate: true})
	fm, err := faults.GenerateRate(32, 32, 0.30, faults.GenSpec{
		BitMode: faults.MSBBits, Pol: faults.StuckAt1, PolMode: faults.FixedPol,
	}, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fm)

	faultyAcc, err := core.EvaluateFaulty(model, arr, fm, ds.Test, false, 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accuracy on the faulty array (no mitigation): %.3f\n", faultyAcc)

	// 4. FalVolt: prune the weights mapped to faulty PEs, bypass those
	//    PEs, retrain the rest while learning each layer's threshold.
	rep, err := mitigation.Mitigate(model, arr, fm, ds.Train, ds.Test, mitigation.Config{
		Method: mitigation.FalVolt, Epochs: 8, LR: 0.01, BatchSize: 16, ClipNorm: 5,
		Rng: rand.New(rand.NewSource(seed + 3)),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after FalVolt: accuracy %.3f (pruned %.1f%% of weights)\n",
		rep.Accuracy, rep.PrunedFraction*100)
	fmt.Println("optimized threshold voltages:")
	for i, name := range model.SpikingNames {
		fmt.Printf("  %-6s Vth = %.3f\n", name, rep.Vths[i])
	}
}
