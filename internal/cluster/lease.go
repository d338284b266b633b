package cluster

import (
	"fmt"
	"time"
)

// Lease is one worker's time-bounded claim on one unit of schedulable
// work. The key type is whatever the owner schedules over: the campaign
// service leases (run, shard) pairs, so one table and one expiry policy
// span its whole catalog.
type Lease[K comparable] struct {
	// ID is the journaled lease identity ("l<seq>-s<key>").
	ID string
	// Worker is the holder's worker ID.
	Worker string
	// Key is the leased work unit.
	Key K

	deadline time.Time
}

// LeaseTable tracks active leases with heartbeat-renewed deadlines. It
// is not self-locking: the owner serializes access under its own mutex.
// Time is injectable so expiry is unit-testable without sleeping.
type LeaseTable[K comparable] struct {
	ttl time.Duration
	now func() time.Time
	seq int
	// byID holds active (possibly expired-but-unswept) leases; byKey
	// indexes the same leases by work unit.
	byID  map[string]*Lease[K]
	byKey map[K]*Lease[K]
}

// NewLeaseTable builds a table with the given TTL; a nil now means
// time.Now (tests inject fake clocks).
func NewLeaseTable[K comparable](ttl time.Duration, now func() time.Time) *LeaseTable[K] {
	if now == nil {
		now = time.Now
	}
	return &LeaseTable[K]{
		ttl:   ttl,
		now:   now,
		byID:  make(map[string]*Lease[K]),
		byKey: make(map[K]*Lease[K]),
	}
}

// Grant leases a work unit to a worker. The unit must not be actively
// leased (callers sweep first).
func (t *LeaseTable[K]) Grant(worker string, key K) *Lease[K] {
	if l, ok := t.byKey[key]; ok {
		panic(fmt.Sprintf("cluster: %v already leased as %s", key, l.ID))
	}
	t.seq++
	l := &Lease[K]{
		ID:       fmt.Sprintf("l%d-s%v", t.seq, key),
		Worker:   worker,
		Key:      key,
		deadline: t.now().Add(t.ttl),
	}
	t.byID[l.ID] = l
	t.byKey[key] = l
	return l
}

// Renew extends a lease's deadline. It returns false — the worker must
// abandon the work — when the lease is unknown, was released, or has
// already expired (renewing past the deadline would resurrect a unit
// that may have been reassigned).
func (t *LeaseTable[K]) Renew(id string) bool {
	l, ok := t.byID[id]
	if !ok || t.expired(l) {
		return false
	}
	l.deadline = t.now().Add(t.ttl)
	return true
}

// Release drops a lease (work finished or run over).
func (t *LeaseTable[K]) Release(id string) {
	if l, ok := t.byID[id]; ok {
		delete(t.byID, id)
		delete(t.byKey, l.Key)
	}
}

// Holder returns the active lease on a work unit, nil if none.
func (t *LeaseTable[K]) Holder(key K) *Lease[K] {
	return t.byKey[key]
}

// ByID returns the active lease with the given ID, nil if none — how a
// service routes a heartbeat's lease ID back to its (run, shard).
func (t *LeaseTable[K]) ByID(id string) *Lease[K] {
	return t.byID[id]
}

// Held returns the number of active leases a worker holds — the
// idle-worker signal behind scale-up advice.
func (t *LeaseTable[K]) Held(worker string) int {
	n := 0
	for _, l := range t.byID {
		if l.Worker == worker {
			n++
		}
	}
	return n
}

// SetSeq resumes the lease sequence (restarted owners continue past
// their journal's GrantCount so fresh IDs never collide with journaled
// ones).
func (t *LeaseTable[K]) SetSeq(n int) {
	if n > t.seq {
		t.seq = n
	}
}

// expired reports whether a lease's deadline has passed.
func (t *LeaseTable[K]) expired(l *Lease[K]) bool {
	return t.now().After(l.deadline)
}

// Sweep removes every expired lease and returns them — their work
// units are now eligible for reassignment, and the owner journals each
// expiry by lease ID.
func (t *LeaseTable[K]) Sweep() []*Lease[K] {
	var freed []*Lease[K]
	for id, l := range t.byID {
		if t.expired(l) {
			delete(t.byID, id)
			delete(t.byKey, l.Key)
			freed = append(freed, l)
		}
	}
	return freed
}
