// Package cluster is the mechanics of running fault-sweep campaigns
// across machines: the HTTP+JSON wire protocol, the heartbeat-leased
// shard table, the worker daemon, and TLS. The control plane that
// plans runs, leases their shards and folds results back is
// internal/service — as a long-lived multi-run catalog (`campaign
// service`) or as a one-run service that implements campaign.Runner
// (`campaign serve`, and the -coordinator flag of cmd/yield and
// cmd/experiments). Any sweep that runs on the in-process PoolRunner
// runs on a fleet by swapping the runner.
//
// Determinism guarantee: distribution never changes results. Every
// trial is seed-addressed — its result is a pure function of the trial,
// not of which worker ran it, when, or after how many lease
// reassignments — and the service records each trial's result exactly
// once, with reductions consuming them in ascending trial-ID order. A
// campaign distributed across any number of workers (including workers
// that die mid-shard and have their leases reassigned) therefore
// produces figure and report JSON byte-identical to a single-process
// run; the distributed tests of this package assert exactly that.
//
// Fault tolerance: leases carry heartbeat-renewed deadlines. A worker
// that misses its deadline (crash, network partition) loses the lease,
// and the shard's remaining trials — those whose results never arrived
// — are reassigned to the next idle worker. Workers keep a local JSONL
// checkpoint per (run, shard), so a restarted worker re-registers,
// resumes its shard from disk, and streams the already-completed
// records instead of re-running them. A restarted service forgets its
// worker table; workers notice only a rejected worker ID and
// re-register on their own.
//
// Safety: workers carry no campaign configuration of their own. Every
// lease grant ships its run's canonical experiment spec
// (internal/spec); the worker builds the campaign from exactly those
// bytes via the spec registry, once per distinct spec fingerprint —
// `campaign work -coordinator <url>` plus the service's bearer token is
// all it takes to join a fleet. Registration rejects wire-protocol
// version mismatches up front.
//
// # Ownership split with internal/service
//
// This package owns the mechanics every fleet needs, policy-free:
//
//   - the wire protocol (protocol.go) — register/lease/heartbeat/
//     results, and the terminal lease statuses a one-run service
//     answers with once its run is over;
//   - LeaseTable — heartbeat-renewed deadlines, generic over its shard
//     key (the service keys it by (run, shard));
//   - Worker — the one worker loop: build per spec fingerprint, run
//     leased shards with local checkpoints, stream results, honor
//     drain directives, exit when a one-run service reports its run
//     done or failed;
//   - TLS helpers and the JSON transport shared by both sides.
//
// internal/service owns the control plane on top: the run catalog and
// its per-run WAL-journaled state dirs, restart recovery, priority +
// deficit fair-share scheduling, admission-time re-planning, the
// autoscaling hooks, bearer-token auth, and the one-run entry point.
// When changing a behavior, place it by that test — a worker or the
// wire needs it: cluster; deciding what runs where, or remembering it
// across restarts: service.
package cluster
