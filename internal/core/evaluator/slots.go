package evaluator

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"lambdatune/internal/obs"
)

// SharedSlots is the Runtime's cross-job evaluation admission gate: a
// weighted-fair counting semaphore that bounds how many evaluation workers
// execute simulated queries concurrently across every job sharing a Runtime.
//
// The gate is strictly a wall-clock throttle. Each job keeps its logical
// Parallelism — the pool still spawns Parallelism workers and merges their
// virtual clocks identically — a slot only decides when a worker's host CPU
// burst runs. Virtual-clock outcomes are therefore byte-identical at any
// slot count and any weight assignment, including zero contention (see the
// pool's determinism notes).
//
// Fairness is two-level and starvation-free:
//
//   - Across tenants, freed slots are granted by deficit round-robin: each
//     tenant accrues credit proportional to its weight when its rotation
//     turn comes up and spends one credit per slot, so a weight-3 tenant
//     receives three slots for every one a weight-1 tenant gets while both
//     are backlogged. Credit is capped at the weight (no burst hoarding) and
//     a tenant's turn always tops it up to at least one, so every waiting
//     tenant is served within one full rotation — no weight assignment can
//     starve another tenant.
//   - Within a tenant, the tenant's jobs are served round-robin with per-job
//     FIFO queues, so a job with many workers cannot starve a sibling job
//     with one.
//
// The grant order is a deterministic function of the operation sequence
// (enqueue, cancel, release), which the seeded scheduler tests pin.
//
// A nil *SharedSlots is a no-op gate (Acquire returns immediately), so the
// single-run path pays one nil check and nothing else.
type SharedSlots struct {
	reg      *obs.Registry
	log      *slog.Logger
	tenantOf func(job string) string
	weight   func(tenant string) int

	mu      sync.Mutex
	cap     int
	inUse   int
	waiting int
	tenants map[string]*slotTenant
	ring    []string // tenants with pending waiters, in DRR rotation
	next    int      // ring index of the tenant served next
	// held counts the slots each tenant currently occupies, feeding the
	// per-tenant slots_occupancy_* gauges.
	held map[string]int
}

// slotTenant is one tenant's fairness state: its deficit-round-robin credit
// and the per-job FIFO queues its waiters sit in.
type slotTenant struct {
	name    string
	credit  int
	jobs    map[string][]chan struct{}
	jobRing []string // jobs with pending waiters, in round-robin rotation
	jobNext int
	waiters int
}

// SlotsConfig configures a weighted gate (see NewWeightedSlots).
type SlotsConfig struct {
	// Capacity bounds concurrent leases; <= 0 yields the nil no-op gate.
	Capacity int
	// TenantOf maps a job label to its fairness tenant. Nil means every job
	// is its own tenant — plain per-job round-robin, the pre-weight behavior.
	TenantOf func(job string) string
	// Weight returns a tenant's fair-share weight. Nil or values < 1 mean 1.
	Weight func(tenant string) int
	// Registry, when non-nil, receives the runtime_pool_* series plus the
	// per-tenant slots_queue_wait_seconds_* histograms and slots_occupancy_*
	// gauges.
	Registry *obs.Registry
	// Logger, when non-nil, records contended scheduler grants at Debug level
	// (uncontended fast-path acquires stay silent — they are the hot path).
	Logger *slog.Logger
}

// NewSharedSlots builds an unweighted gate admitting capacity concurrent
// evaluation workers: every job is its own tenant with weight 1, i.e. fair
// round-robin per job. capacity <= 0 returns nil — the unbounded no-op gate.
func NewSharedSlots(capacity int, reg *obs.Registry) *SharedSlots {
	return NewWeightedSlots(SlotsConfig{Capacity: capacity, Registry: reg})
}

// NewWeightedSlots builds a gate with per-tenant fair-share weights. A zero
// or negative capacity returns nil — the unbounded no-op gate.
func NewWeightedSlots(cfg SlotsConfig) *SharedSlots {
	if cfg.Capacity <= 0 {
		return nil
	}
	return &SharedSlots{
		cap:      cfg.Capacity,
		reg:      cfg.Registry,
		log:      cfg.Logger,
		tenantOf: cfg.TenantOf,
		weight:   cfg.Weight,
		tenants:  make(map[string]*slotTenant),
		held:     make(map[string]int),
	}
}

// tenantKey resolves a job label's fairness tenant.
func (s *SharedSlots) tenantKey(job string) string {
	if s.tenantOf == nil {
		return job
	}
	return s.tenantOf(job)
}

// weightOf resolves a tenant's weight, clamped to >= 1 so the DRR loop
// always makes progress and no tenant can be configured into starvation.
func (s *SharedSlots) weightOf(tenant string) int {
	if s.weight == nil {
		return 1
	}
	if w := s.weight(tenant); w > 1 {
		return w
	}
	return 1
}

// Acquire blocks until a slot is free (weighted fair-share grant) or ctx is
// done, and returns an idempotent release function. job attributes the wait
// to a fairness queue ("" is a valid shared anonymous queue).
func (s *SharedSlots) Acquire(ctx context.Context, job string) (func(), error) {
	if s == nil {
		return func() {}, nil
	}
	start := time.Now()
	tn := s.tenantKey(job)
	s.mu.Lock()
	if s.inUse < s.cap {
		s.inUse++
		inUse := s.inUse
		s.held[tn]++
		held := s.held[tn]
		s.mu.Unlock()
		s.observe(start, inUse, tn, held)
		return s.releaseFunc(tn), nil
	}
	t := s.tenants[tn]
	if t == nil {
		t = &slotTenant{name: tn, jobs: make(map[string][]chan struct{}, 2)}
		s.tenants[tn] = t
		s.ring = append(s.ring, tn)
	}
	ch := make(chan struct{})
	if len(t.jobs[job]) == 0 {
		t.jobRing = append(t.jobRing, job)
	}
	t.jobs[job] = append(t.jobs[job], ch)
	t.waiters++
	s.waiting++
	waiting := s.waiting
	s.mu.Unlock()
	if s.reg != nil {
		s.reg.Gauge("runtime_pool_waiters").Set(float64(waiting))
	}

	select {
	case <-ch:
		// The releaser transferred its slot to us (and moved the held count
		// to our tenant); inUse stays constant.
		s.mu.Lock()
		held := s.held[tn]
		s.mu.Unlock()
		s.observe(start, -1, tn, held)
		return s.releaseFunc(tn), nil
	case <-ctx.Done():
		s.mu.Lock()
		removed := s.removeWaiter(tn, job, ch)
		waiting := s.waiting
		s.mu.Unlock()
		if s.reg != nil {
			s.reg.Gauge("runtime_pool_waiters").Set(float64(waiting))
		}
		if !removed {
			// Lost the race: a slot was granted concurrently with the
			// cancellation. Hand it straight back.
			<-ch
			s.release(tn)
		}
		return nil, ctx.Err()
	}
}

// removeWaiter unlinks a canceled waiter from its tenant's job queue,
// pruning the empty job and tenant rotation entries. Caller holds s.mu; the
// return reports whether the waiter was still queued (false = it was granted
// concurrently and the caller must return the slot).
func (s *SharedSlots) removeWaiter(tenant, job string, ch chan struct{}) bool {
	t := s.tenants[tenant]
	if t == nil {
		return false
	}
	q := t.jobs[job]
	for i, c := range q {
		if c != ch {
			continue
		}
		q = append(q[:i:i], q[i+1:]...)
		t.jobs[job] = q
		t.waiters--
		s.waiting--
		if len(q) == 0 {
			delete(t.jobs, job)
			dropFromRing(&t.jobRing, &t.jobNext, job)
		}
		if t.waiters == 0 {
			delete(s.tenants, tenant)
			dropFromRing(&s.ring, &s.next, tenant)
		}
		return true
	}
	return false
}

// releaseFunc wraps release in a sync.Once so double-release (defer plus
// explicit) cannot corrupt the count. tenant is who held the slot.
func (s *SharedSlots) releaseFunc(tenant string) func() {
	var once sync.Once
	return func() { once.Do(func() { s.release(tenant) }) }
}

// release grants the freed slot to the next waiter chosen by the weighted
// fair-share rotation, or decrements inUse when nobody waits. from is the
// tenant returning the slot; a transfer moves its held count to the grantee.
func (s *SharedSlots) release(from string) {
	s.mu.Lock()
	if s.held[from]--; s.held[from] <= 0 {
		delete(s.held, from)
	}
	fromHeld := s.held[from]
	ch, tenant := s.grantLocked()
	if ch != nil {
		s.held[tenant]++
		tenantHeld := s.held[tenant]
		waiting := s.waiting
		s.mu.Unlock()
		close(ch) // transfer the slot without touching inUse — wake the
		// waiter before spending time on telemetry: the grantee's work, not
		// the granter's metric updates, is on the critical path.
		if s.reg != nil {
			s.reg.Gauge("runtime_pool_waiters").Set(float64(waiting))
			s.reg.Counter("runtime_pool_grants_total").Inc()
			if s.tenantOf != nil {
				s.reg.Counter("runtime_pool_tenant_grants_total_" + obs.MetricSuffix(tenant)).Inc()
			}
			s.reg.Gauge("slots_occupancy_" + obs.MetricSuffix(from)).Set(float64(fromHeld))
			s.reg.Gauge("slots_occupancy_" + obs.MetricSuffix(tenant)).Set(float64(tenantHeld))
		}
		if s.log != nil {
			s.log.Debug("slot granted", "tenant", tenant, "from", from, "waiting", waiting)
		}
		return
	}
	s.inUse--
	inUse := s.inUse
	s.mu.Unlock()
	if s.reg != nil {
		s.reg.Gauge("runtime_pool_slots_in_use").Set(float64(inUse))
		s.reg.Gauge("slots_occupancy_" + obs.MetricSuffix(from)).Set(float64(fromHeld))
	}
}

// grantLocked pops the next waiter per the deficit-round-robin rotation, or
// returns nil when nobody waits. Caller holds s.mu.
func (s *SharedSlots) grantLocked() (chan struct{}, string) {
	for len(s.ring) > 0 {
		if s.next >= len(s.ring) {
			s.next = 0
		}
		t := s.tenants[s.ring[s.next]]
		if t == nil || t.waiters == 0 {
			// Defensive: a tenant left its queues without leaving the ring.
			delete(s.tenants, s.ring[s.next])
			s.ring = append(s.ring[:s.next:s.next], s.ring[s.next+1:]...)
			continue
		}
		if t.credit < 1 {
			// The tenant's rotation turn starts: top up its deficit credit.
			// Credit never exceeds the weight (top-up only happens below 1),
			// so an idle-then-busy tenant cannot burst past its share.
			t.credit += s.weightOf(t.name)
		}
		ch := t.popWaiter()
		t.credit--
		s.waiting--
		if t.waiters == 0 {
			// The tenant's backlog is drained: drop it from the rotation and
			// forget its residual credit (classic DRR resets the deficit when
			// a queue empties, so credit cannot accrue while idle).
			delete(s.tenants, t.name)
			s.ring = append(s.ring[:s.next:s.next], s.ring[s.next+1:]...)
			// next now points at the element after the removed one.
		} else if t.credit < 1 {
			// Credit spent: the turn passes to the next tenant.
			s.next++
		}
		return ch, t.name
	}
	return nil, ""
}

// popWaiter dequeues the tenant's next waiter, round-robin across its jobs.
// The tenant must have at least one waiter; caller holds s.mu.
func (t *slotTenant) popWaiter() chan struct{} {
	for {
		if t.jobNext >= len(t.jobRing) {
			t.jobNext = 0
		}
		job := t.jobRing[t.jobNext]
		q := t.jobs[job]
		if len(q) == 0 {
			// Defensive: a job left its queue without leaving the ring.
			delete(t.jobs, job)
			t.jobRing = append(t.jobRing[:t.jobNext:t.jobNext], t.jobRing[t.jobNext+1:]...)
			continue
		}
		ch := q[0]
		t.jobs[job] = q[1:]
		if len(t.jobs[job]) == 0 {
			delete(t.jobs, job)
			t.jobRing = append(t.jobRing[:t.jobNext:t.jobNext], t.jobRing[t.jobNext+1:]...)
			// jobNext now points at the element after the removed one.
		} else {
			t.jobNext++
		}
		t.waiters--
		return ch
	}
}

// dropFromRing removes name from a rotation slice, keeping next pointed at
// the same successor.
func dropFromRing(ring *[]string, next *int, name string) {
	r := *ring
	for i, j := range r {
		if j == name {
			*ring = append(r[:i:i], r[i+1:]...)
			if *next > i {
				*next--
			}
			return
		}
	}
}

// waiterCount reports the queued waiters (tests and introspection).
func (s *SharedSlots) waiterCount() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiting
}

// observe publishes one granted lease: wall wait seconds (global and
// per-tenant), the tenant's slot occupancy, and, when known, the in-use
// level (inUse < 0 means "transferred, level unchanged").
func (s *SharedSlots) observe(start time.Time, inUse int, tenant string, held int) {
	if s.reg == nil {
		return
	}
	s.reg.Counter("runtime_pool_leases_total").Inc()
	wait := time.Since(start).Seconds()
	s.reg.Histogram("runtime_pool_lease_wait_seconds").Observe(wait)
	ts := obs.MetricSuffix(tenant)
	s.reg.Histogram("slots_queue_wait_seconds_" + ts).Observe(wait)
	s.reg.Gauge("slots_occupancy_" + ts).Set(float64(held))
	if inUse >= 0 {
		s.reg.Gauge("runtime_pool_slots_in_use").Set(float64(inUse))
	}
}
