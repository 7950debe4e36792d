package llm

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"lambdatune/internal/obs"
)

// TenantGateway scopes one shared LLM transport across the tenants of a
// Runtime. Each tenant gets its own circuit breaker and in-flight bound, so
// one tenant's failing model calls (or call storm) cannot poison another's:
// breaker state, failure streaks, and rate slots never cross tenant lines.
//
// The gateway sits between the shared transport and each job's private
// ResilientClient: transport → fault interceptor → gateway → per-job
// retries/backoff. A tripped breaker rejects calls with a non-retryable
// TenantBreakerError, which the per-job ResilientClient surfaces immediately
// instead of burning its retry budget.
//
// Unlike the per-job resilience layer, which runs on the job's virtual
// clock, breaker cooldowns here use wall time: tenants' virtual clocks are
// mutually incomparable, and the wall clock is the only time base the
// shared transport actually lives on. The gateway therefore never
// participates in virtual-clock accounting — a rejected call fails
// instantly on both clocks.
//
// A zero-valued options struct disables every mechanism; Enabled() reports
// false and Client returns the inner client untouched, so the default
// Runtime path is byte-identical to the pre-gateway pipeline.
type TenantGateway struct {
	opts TenantGatewayOptions

	mu      sync.Mutex
	tenants map[string]*tenantState
}

// TenantGatewayOptions configures the per-tenant scoping.
type TenantGatewayOptions struct {
	// BreakerThreshold is the number of consecutive failed calls that trips
	// a tenant's circuit breaker. 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the wall-clock time a tripped breaker stays open
	// before the next call is allowed through as a half-open probe.
	// Defaults to 30s when the breaker is enabled.
	BreakerCooldown time.Duration
	// MaxInFlight bounds a tenant's concurrent calls on the shared
	// transport. 0 means unbounded.
	MaxInFlight int
	// Registry, when non-nil, receives the per-tenant breaker metrics
	// (runtime_llm_breaker_open_<tenant>, runtime_llm_breaker_trips_total_<tenant>,
	// runtime_llm_breaker_rejects_total_<tenant>) plus the gateway depth
	// series: tenant_gateway_calls_total_<tenant>,
	// tenant_gateway_inflight_<tenant>, and
	// tenant_gateway_breaker_transitions_total_<tenant>. A registry alone
	// makes the gateway Active — calls are counted even with every
	// enforcement mechanism off.
	Registry *obs.Registry
	// Logger, when non-nil, records breaker state changes (opened, half-open
	// probe) with the tenant key.
	Logger *slog.Logger
}

// tenantState is one tenant's isolated gateway state.
type tenantState struct {
	tenant string
	sem    chan struct{} // nil when MaxInFlight is off

	mu          sync.Mutex
	consecFails int
	openUntil   time.Time // zero when closed
	trips       int
	inflight    int // calls currently on the shared transport
}

// NewTenantGateway builds a gateway. The zero options value yields a
// disabled gateway (see Enabled).
func NewTenantGateway(opts TenantGatewayOptions) *TenantGateway {
	if opts.BreakerThreshold > 0 && opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 30 * time.Second
	}
	return &TenantGateway{opts: opts, tenants: make(map[string]*tenantState)}
}

// Enabled reports whether any enforcement mechanism (breaker, in-flight
// bound) is on.
func (g *TenantGateway) Enabled() bool {
	return g != nil && (g.opts.BreakerThreshold > 0 || g.opts.MaxInFlight > 0)
}

// Active reports whether Client wraps inner at all: enforcement enabled, or
// pure instrumentation requested (a registry or logger). With enforcement
// off the wrapper is a pass-through — the breaker can never trip at
// threshold 0 and no semaphore exists — so wrapping for instrumentation
// alone cannot change call outcomes. An inactive gateway's Client returns
// the inner client untouched.
func (g *TenantGateway) Active() bool {
	return g.Enabled() || (g != nil && (g.opts.Registry != nil || g.opts.Logger != nil))
}

// state returns (creating if needed) the named tenant's isolated state.
func (g *TenantGateway) state(tenant string) *tenantState {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.tenants[tenant]
	if st == nil {
		st = &tenantState{tenant: tenant}
		if g.opts.MaxInFlight > 0 {
			st.sem = make(chan struct{}, g.opts.MaxInFlight)
		}
		g.tenants[tenant] = st
	}
	return st
}

// Client wraps inner with the named tenant's breaker, in-flight bound, and
// gateway instrumentation. With the gateway inactive, inner comes back
// untouched.
func (g *TenantGateway) Client(tenant string, inner Client) Client {
	if !g.Active() {
		return inner
	}
	return &tenantClient{g: g, st: g.state(tenant), inner: inner}
}

// BreakerOpen reports whether the tenant's breaker is currently open.
func (g *TenantGateway) BreakerOpen(tenant string) bool {
	if g == nil {
		return false
	}
	st := g.state(tenant)
	st.mu.Lock()
	defer st.mu.Unlock()
	return !st.openUntil.IsZero() && time.Now().Before(st.openUntil)
}

// Trips returns how many times the tenant's breaker has tripped.
func (g *TenantGateway) Trips(tenant string) int {
	if g == nil {
		return 0
	}
	st := g.state(tenant)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.trips
}

// TenantBreakerError rejects a call while a tenant's breaker is open. It is
// non-retryable for the per-job resilience layer: retrying within the job
// cannot help until the wall-clock cooldown expires.
type TenantBreakerError struct {
	Tenant string
	Until  time.Time
}

// Error implements error.
func (e *TenantBreakerError) Error() string {
	return fmt.Sprintf("llm: tenant %q circuit breaker open until %s", e.Tenant, e.Until.Format(time.RFC3339))
}

// Retryable marks the error non-retryable (see retryableError).
func (e *TenantBreakerError) Retryable() bool { return false }

// tenantClient is the per-tenant view of the shared transport.
type tenantClient struct {
	g     *TenantGateway
	st    *tenantState
	inner Client
}

// Name identifies the underlying model.
func (c *tenantClient) Name() string { return c.inner.Name() }

// Complete implements Client.
func (c *tenantClient) Complete(ctx context.Context, prompt string) (string, error) {
	return c.run(ctx, func(ctx context.Context) (string, error) {
		return c.inner.Complete(ctx, prompt)
	})
}

// CompleteT implements TemperatureCompleter, forwarding the temperature to
// the inner client.
func (c *tenantClient) CompleteT(ctx context.Context, prompt string, temperature float64) (string, error) {
	return c.run(ctx, func(ctx context.Context) (string, error) {
		return Complete(ctx, c.inner, prompt, temperature)
	})
}

// run applies the tenant's breaker, in-flight bound, and gateway
// instrumentation around one call.
func (c *tenantClient) run(ctx context.Context, call func(context.Context) (string, error)) (string, error) {
	st := c.st
	st.mu.Lock()
	if !st.openUntil.IsZero() {
		if time.Now().Before(st.openUntil) {
			until := st.openUntil
			st.mu.Unlock()
			c.g.counter("runtime_llm_breaker_rejects_total_", st.tenant).Inc()
			return "", &TenantBreakerError{Tenant: st.tenant, Until: until}
		}
		// Cooldown elapsed: half-open — let this call probe the transport.
		st.openUntil = time.Time{}
		c.g.gauge("runtime_llm_breaker_open_", st.tenant).Set(0)
		c.g.counter("tenant_gateway_breaker_transitions_total_", st.tenant).Inc()
		if c.g.opts.Logger != nil {
			c.g.opts.Logger.Info("tenant breaker half-open", "tenant", st.tenant)
		}
	}
	st.mu.Unlock()

	if st.sem != nil {
		select {
		case st.sem <- struct{}{}:
			defer func() { <-st.sem }()
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}

	st.mu.Lock()
	st.inflight++
	c.g.gauge("tenant_gateway_inflight_", st.tenant).Set(float64(st.inflight))
	st.mu.Unlock()
	c.g.counter("tenant_gateway_calls_total_", st.tenant).Inc()

	out, err := call(ctx)

	st.mu.Lock()
	defer st.mu.Unlock()
	st.inflight--
	c.g.gauge("tenant_gateway_inflight_", st.tenant).Set(float64(st.inflight))
	switch {
	case err == nil:
		st.consecFails = 0
	case ctx.Err() != nil:
		// Cancellation is the caller's verdict, not the transport's: it
		// must not move the breaker either way.
	default:
		st.consecFails++
		if th := c.g.opts.BreakerThreshold; th > 0 && st.consecFails >= th {
			st.consecFails = 0
			st.openUntil = time.Now().Add(c.g.opts.BreakerCooldown)
			st.trips++
			c.g.counter("runtime_llm_breaker_trips_total_", st.tenant).Inc()
			c.g.counter("tenant_gateway_breaker_transitions_total_", st.tenant).Inc()
			c.g.gauge("runtime_llm_breaker_open_", st.tenant).Set(1)
			if c.g.opts.Logger != nil {
				c.g.opts.Logger.Warn("tenant breaker opened",
					"tenant", st.tenant, "trips", st.trips, "cooldown", c.g.opts.BreakerCooldown.String())
			}
		}
	}
	return out, err
}

// counter / gauge resolve a per-tenant metric (nil-safe via the registry).
func (g *TenantGateway) counter(prefix, tenant string) *obs.Counter {
	return g.opts.Registry.Counter(prefix + obs.MetricSuffix(tenant))
}

func (g *TenantGateway) gauge(prefix, tenant string) *obs.Gauge {
	return g.opts.Registry.Gauge(prefix + obs.MetricSuffix(tenant))
}
