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
	"falvolt/internal/fixed"
	"falvolt/internal/mitigation"
	"falvolt/internal/snn"
	"falvolt/internal/systolic"
)

func main() {
	const seed = 31
	const side = 64

	// 16x16 frames with three conv blocks keep the example quick; pass the
	// full 32x32 five-block spec for the paper-scale run.
	ds, err := datasets.SyntheticDVSGesture(datasets.Config{
		Train: 220, Test: 88, H: 16, W: 16, T: 6, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	spec := snn.DVSGestureSpec()
	spec.InH, spec.InW, spec.T = 16, 16, 6
	spec.EncoderC, spec.BlockC, spec.FCHidden = 4, []int{8, 8, 16}, 32
	model, err := snn.Build(spec, rand.New(rand.NewSource(seed)))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("training gesture classifier (%d classes: %v ...)\n",
		ds.Classes, datasets.GestureClasses[:3])
	baseAcc, err := core.TrainBaseline(model, ds.Train, ds.Test, core.BaselineConfig{
		Epochs: 16, LR: 0.02, Rng: rand.New(rand.NewSource(seed + 1)),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline accuracy %.3f\n", baseAcc)

	arr := systolic.MustNew(systolic.Config{Rows: side, Cols: side, Format: fixed.Q16x16, Saturate: true})
	fm, err := faults.GenerateRate(side, side, 0.30, faults.GenSpec{
		BitMode: faults.MSBBits, Pol: faults.StuckAt1, PolMode: faults.FixedPol,
	}, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		log.Fatal(err)
	}

	faulty, err := core.EvaluateFaulty(model, arr, fm, ds.Test, false, 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unmitigated on faulty array: %.3f\n", faulty)

	rep, err := mitigation.Mitigate(model, arr, fm, ds.Train, ds.Test, mitigation.Config{
		Method: mitigation.FalVolt, Epochs: 10, LR: 0.01, BatchSize: 16, ClipNorm: 5,
		Rng: rand.New(rand.NewSource(seed + 3)),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after FalVolt: %.3f (pruned %.1f%%)\n", rep.Accuracy, rep.PrunedFraction*100)
	for i, name := range model.SpikingNames {
		fmt.Printf("  %-7s Vth = %.3f\n", name, rep.Vths[i])
	}
}
