// Package faults models hardware faults in a systolic-array SNN
// accelerator and generates the fault instances used throughout the
// experiments. Three fault classes are covered, unified behind the
// FaultModel interface so campaigns, spec files and tools can address
// any of them by name the way they already address a tensor.Backend:
//
//   - "stuckat" (StuckAtModel): the paper's fault class. Permanent
//     stuck-at bits on PE accumulator (or weight-register) outputs,
//     recorded in a Map. In a real flow the map comes from
//     post-fabrication scan testing of each manufactured chip; here it
//     is generated pseudo-randomly (seeded, reproducible) or
//     constructed explicitly, and systolic.ScanTest models the post-fab
//     march test that recovers it from the faulty hardware alone.
//
//   - "bitflip" (BitFlipModel): memory bit-flips in the weight SRAM at
//     per-bit-significance rates, after ReSpawn
//     (https://arxiv.org/pdf/2108.10271): approximate/low-power SRAM
//     trades retention for energy, so low-order bits flip more often
//     than high-order ones. A MemoryFaults value decides each
//     (word, bit) flip by a pure counter-based hash of (Seed, word,
//     bit), so the instance is fully determined by (seed, rates) —
//     independent of array, engine, shard or evaluation order — and
//     flips hit exactly what the accelerator stores: they are applied
//     on the compiled-tile path (systolic/compile.go) that materializes
//     the weight words the PEs hold.
//
//   - "transient" (TransientModel): transient soft errors, after
//     SoftSNN (https://arxiv.org/pdf/2203.05523): a particle strike
//     upsets an accumulator bit at a chosen inference timestep, holds
//     for a short per-strike duration, and then the PE recovers. A
//     TransientSchedule answers "which bits are forced at timestep t";
//     systolic.Array.SetTimestep threads the timestep through Forward
//     so mid-inference strikes corrupt only the steps inside their
//     window.
//
// A FaultModel realizes one (rate, seed) cell on any injection Target
// (Inject) and can also Describe the exact fault instance it would
// inject — the deterministic, JSON-marshalable value the SpikeFI-style
// test harness byte-compares across shard splits and worker counts.
// Site enumeration (EnumerateSites/SampleSites) provides the
// deterministic fault-site universe for exhaustive or sampled
// campaigns, after SpikeFI (https://arxiv.org/pdf/2412.06795).
package faults
