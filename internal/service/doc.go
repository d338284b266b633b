// Package service is the campaign control plane: one coordinator that
// multiplexes experiment runs over a single shared worker fleet. It
// runs in two shapes over the same machinery:
//
//   - Service (`campaign service`) is long-lived and multi-tenant: a
//     catalog that accepts specs over HTTP and schedules every admitted
//     run until cancelled;
//   - OneRun (`campaign serve`, and the -coordinator flag of cmd/yield
//     and cmd/experiments) is a campaign.Runner: it admits exactly the
//     trials campaign.Run hands it as the catalog's only run, streams
//     each accepted result to the caller's sink exactly once, and exits
//     once that run is done or failed — answering lease calls with the
//     outcome for a short linger, so idle workers exit cleanly. Without
//     a state dir it journals into a temporary one it deletes on exit.
//
// internal/cluster owns the mechanics underneath: the wire protocol,
// the generic lease table with heartbeat-renewed deadlines, the worker
// daemon, TLS. This package owns everything that decides what runs
// where or must survive a restart: the run catalog (submit/list/get/
// watch/cancel, with spec.Spec Name/Labels annotations), per-run
// durability, the cross-run fair-share scheduler, admission-time
// re-planning, the autoscaling hooks, and bearer-token auth. It reuses
// cluster's LeaseTable, protocol types and HTTP helpers, and campaign's
// WAL.
//
// # Run catalog and durability
//
// Each submitted spec becomes a run: "r<seq>-<fingerprint[:8]>", with
// its own state directory <StateDir>/runs/<runID>/ holding
//
//   - status.json — catalog metadata (name, labels, priority, state),
//     rewritten atomically on every state transition, so a restarted
//     service can list terminal runs without replaying anything;
//   - wal.jsonl — the run's write-ahead log (campaign.WAL: shard table,
//     lease lifecycle, every accepted result), the one crash-recovery
//     path: restart recovery replays it;
//   - results.jsonl — written atomically when the run completes: a
//     complete, ordinary checkpoint (header + results sorted by trial
//     ID) that `campaign merge` consumes like any shard file, and that
//     merges byte-identically to a single-process execution. A
//     OneRun's holds the results it delivered; trials its caller
//     resumed from its own checkpoint live only there.
//
// A SIGKILLed service restarted on the same StateDir replays every
// in-flight run's WAL, invalidates the leases that were open at the
// crash, and carries on; workers re-register and resume from their
// local per-(run, shard) checkpoints, so completed trials never re-run.
// A OneRun restarted on its StateDir recovers its run the same way,
// re-delivers journaled results its caller lost, and refuses a state
// dir journaling a different spec. A run killed during admission,
// before its journal header landed, is discarded and planned afresh.
//
// # Scheduling
//
// One cluster.LeaseTable keyed by (run, shard) covers the whole
// catalog. A lease request picks among runs that are running and have a
// free shard: the highest submission priority wins outright, and within
// a priority band a deficit counter — charged to the chosen run,
// credited equally to every contender — keeps long-term shard grants
// fair however uneven the shard sizes are.
//
// Plans are revisited at run-admission boundaries: every admission
// recomputes campaign.TimingByKey over all recorded results and feeds
// it through the campaign.Planner seam (BalancedPlanner), both for the
// new run and to re-plan any running run that currently has no leases
// outstanding; each re-plan is journaled as a WAL plan record so replay
// restores the table actually in force.
//
// # Autoscaling hooks
//
// Heartbeat responses carry scale-up advice (schedulable shards minus
// idle live workers) and graceful-drain directives; lease responses
// carry drain for idle workers. cluster.Worker honors both: a drained
// worker finishes its current shard, then exits instead of taking
// another lease. The advice is also exposed on GET /v1/status for
// external autoscalers.
//
// # Auth
//
// Every endpoint — worker protocol and catalog alike — requires the
// service's bearer token ("Authorization: Bearer <token>"), compared in
// constant time. A service, one-run or not, refuses to start without
// one.
package service
