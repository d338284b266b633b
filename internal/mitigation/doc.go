// Package mitigation is the salvage-strategy zoo: pluggable ways to
// turn a trained SNN plus a concrete fault map into a deployment that
// still classifies, mirroring how internal/faults makes the fault side
// pluggable. Each strategy implements the Mitigation interface
// (Name/Apply/Describe) and is spec-addressable by name via New:
//
//   - "fap", "fapit", "falvolt" — the paper's retraining family
//     (Algorithm 1): fault-aware pruning, optionally retraining the
//     surviving weights, with FalVolt additionally learning per-layer
//     threshold voltages. Mitigate runs it directly with a Method and
//     the same Options every strategy takes.
//   - "respawn" — ReSpawn-style fault-aware weight-to-PE mapping
//     (Putra et al.): permute GEMM rows/columns so the most significant
//     weight lines land on the least-faulty PE lines. Zero retraining;
//     the permutation is undone on the way out so the network is
//     numerically unchanged where no fault intervenes.
//   - "rescuesnn" — RescueSNN-style mapping plus selective bypass
//     (arXiv:2304.04041): PEs with faults at or above the binary point
//     are individually bypassed (their products pruned), then the
//     remaining layout is remapped as in ReSpawn.
//   - "softsnn" — SoftSNN-style zero-retraining range restriction:
//     clamp each neuron's membrane-current contribution to the bounds
//     reachable by its fault-free weight row, so a fault can no longer
//     push an accumulator output outside physically-meaningful range.
//
// All strategies share the no-op invariant: applied to a fault-free
// array they leave accuracy and per-PE spike counts bit-identical to an
// unmitigated deployment. The salvage campaign in internal/core races
// every (fault model x rate x mitigation x seed) cell head-to-head.
package mitigation
