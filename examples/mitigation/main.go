// Mitigation: FaP vs FaPIT vs FalVolt head to head (the paper's Fig. 7
// comparison on one dataset), starting every method from the same trained
// baseline and the same fault map, and reporting convergence speed
// (the Fig. 8 claim: FalVolt reaches the target in roughly half the
// epochs of FaPIT).
//
//	go run ./examples/mitigation
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
	const seed = 23
	const side = 64
	const faultRate = 0.30

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
	fmt.Println("training baseline...")
	baseAcc, err := core.TrainBaseline(model, ds.Train, ds.Test, core.BaselineConfig{
		Epochs: 12, LR: 0.02, Rng: rand.New(rand.NewSource(seed + 1)),
	})
	if err != nil {
		log.Fatal(err)
	}
	baseline := model.Net.State()
	fmt.Printf("baseline accuracy %.3f\n", baseAcc)

	arr := systolic.MustNew(systolic.Config{Rows: side, Cols: side, Format: fixed.Q16x16, Saturate: true})
	fm, err := faults.GenerateRate(side, side, faultRate, faults.GenSpec{
		BitMode: faults.MSBBits, Pol: faults.StuckAt1, PolMode: faults.FixedPol,
	}, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v\n\n", fm)

	target := baseAcc - 0.05 // "close to baseline" recovery target
	for _, method := range []mitigation.Method{mitigation.FaP, mitigation.FaPIT, mitigation.FalVolt} {
		model.Net.Undeploy()
		if err := model.Net.LoadState(baseline); err != nil {
			log.Fatal(err)
		}
		rep, err := mitigation.Mitigate(model, arr, fm, ds.Train, ds.Test, mitigation.Config{
			Method: method, Epochs: 10, LR: 0.01, BatchSize: 16, ClipNorm: 5,
			TrackCurve: true, CurveEvalSize: 64,
			Rng: rand.New(rand.NewSource(seed + 3)),
		})
		if err != nil {
			log.Fatal(err)
		}
		line := fmt.Sprintf("%-8s accuracy %.3f", method, rep.Accuracy)
		if method != mitigation.FaP {
			if e := mitigation.EpochsToReachTarget(rep.Curve, target); e >= 0 {
				line += fmt.Sprintf("  (reached %.3f at epoch %d)", target, e)
			} else {
				line += fmt.Sprintf("  (did not reach %.3f in %d epochs)", target, 10)
			}
		}
		fmt.Println(line)
	}
}
