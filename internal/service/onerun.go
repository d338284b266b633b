package service

import (
	"context"
	"fmt"
	"os"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/cluster"
	"falvolt/internal/spec"
)

// oneRunLinger is how long a one-run service keeps answering lease
// calls with its run's outcome before it exits.
const oneRunLinger = time.Second

// OneRun is a campaign service that serves exactly one run, then exits:
// the distributed campaign.Runner behind `campaign serve`. Run admits the
// trials campaign.Run hands it as the catalog's only run, streams each
// accepted result to the sink exactly once, and returns when that run
// is terminal. Everything else — leases, scheduling, the per-run WAL
// and its replay, auth, TLS — is the Service's own machinery, so a
// restart on the same StateDir resumes the run exactly as a catalog
// service resumes any in-flight run. A OneRun is single-use.
type OneRun struct {
	svc *Service
}

// oneRun is the Service side of a OneRun: spec comes from NewOneRun,
// the campaign-side fields from Run, and run is set once the run is
// admitted or recovered.
type oneRun struct {
	spec   *spec.Spec
	fp     string
	c      campaign.Campaign
	trials []campaign.Trial
	sink   func(campaign.Result) error
	run    *run
}

// NewOneRun builds a one-run service for the experiment sp. Workers
// build their campaign from sp. cfg.Token is required, as for any
// service.
func NewOneRun(cfg Config, sp *spec.Spec) *OneRun {
	svc := New(cfg)
	svc.one = &oneRun{spec: sp}
	return &OneRun{svc: svc}
}

// Ready is closed once the service is listening; URL is valid from then
// on.
func (o *OneRun) Ready() <-chan struct{} { return o.svc.Ready() }

// URL returns the service's base URL. Valid only after Ready.
func (o *OneRun) URL() string { return o.svc.URL() }

// Summary snapshots the run's catalog entry (zero before the run is
// admitted or recovered).
func (o *OneRun) Summary() RunSummary {
	s := o.svc
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.one.run == nil {
		return RunSummary{}
	}
	return s.one.run.summary()
}

// Run implements campaign.Runner: serve trials to the service's workers
// and deliver each result to sink exactly once. It returns nil once
// every trial has a result, ctx.Err() when ctx is cancelled, or the
// run's failure (trial error, result conflict, sink error).
func (o *OneRun) Run(ctx context.Context, c campaign.Campaign, trials []campaign.Trial, sink func(campaign.Result) error) error {
	if len(trials) == 0 {
		return nil
	}
	s, one := o.svc, o.svc.one
	canonical, err := one.spec.Canonical()
	if err != nil {
		return err
	}
	fp, err := one.spec.Fingerprint()
	if err != nil {
		return err
	}
	// spec.Build embeds the canonical spec in the campaign's metadata.
	// Workers build from one.spec; if the caller built c from another
	// spec, they would return results for a different experiment than
	// the one whose checkpoint this run writes — refuse up front.
	if mp, ok := c.(campaign.MetaProvider); ok {
		if embedded, ok := mp.Meta()["spec"]; ok && embedded != string(canonical) {
			return fmt.Errorf("service: the one-run spec %s does not match campaign %s's spec", fp, c.Name())
		}
	}
	s.mu.Lock()
	if one.c != nil {
		s.mu.Unlock()
		return fmt.Errorf("service: a one-run service is single-use; make a new one per run")
	}
	one.fp, one.c, one.trials, one.sink = fp, c, trials, sink
	s.mu.Unlock()
	// The campaign arrives built: a recovered run must not rebuild it
	// (baseline training can be expensive).
	s.cfg.Build = func(*spec.Spec) (*spec.Built, error) { return &spec.Built{Campaign: c}, nil }
	if s.cfg.StateDir == "" {
		dir, err := os.MkdirTemp("", "campaign-serve-*")
		if err != nil {
			return fmt.Errorf("service: temporary state dir: %w", err)
		}
		defer os.RemoveAll(dir)
		s.cfg.StateDir = dir
	}
	return s.Run(ctx)
}

// admitOneLocked attaches a one-run service to its run: the one
// recovered from the state dir (recoverLocked admits no other), or a
// fresh admission.
func (s *Service) admitOneLocked() error {
	one := s.one
	if len(s.order) > 0 {
		one.run = s.runs[s.order[0]]
		return nil
	}
	var err error
	one.run, err = s.admitLocked(one.spec, &spec.Built{Campaign: one.c}, one.trials)
	return err
}

// outcome reports whether the run is terminal and, if so, how it ended
// (nil for done).
func (one *oneRun) outcome() (bool, error) {
	switch r := one.run; {
	case r == nil || !r.terminal():
		return false, nil
	case r.state == RunDone:
		return true, nil
	case r.state == RunCancelled:
		return true, fmt.Errorf("service: run %s was cancelled", r.id)
	default:
		return true, fmt.Errorf("service: run %s failed: %s", r.id, r.failure)
	}
}

// leaseOutcome is a one-run service's answer to lease calls once its
// run is terminal: StatusDone, or StatusFailed with the cause.
func (one *oneRun) leaseOutcome() (cluster.LeaseResponse, bool) {
	over, err := one.outcome()
	switch {
	case !over:
		return cluster.LeaseResponse{}, false
	case err != nil:
		return cluster.LeaseResponse{Status: cluster.StatusFailed, Error: err.Error()}, true
	}
	return cluster.LeaseResponse{Status: cluster.StatusDone}, true
}
