package serve

import (
	"time"

	"cloudmedia/internal/provision"
)

// TimedPolicy wraps a provisioning policy so every Plan call's wall-clock
// duration is reported to observe — the metric store's plan-latency
// feed. The wrapper is transparent: Name, Lookahead, Oracle, an optional
// Validate, and the planner's optional NeedsFuture all forward to the
// inner policy, so the controller's behaviour is unchanged.
func TimedPolicy(p provision.Policy, observe func(seconds float64)) provision.Policy {
	return timedPolicy{inner: p, observe: observe}
}

type timedPolicy struct {
	inner   provision.Policy
	observe func(seconds float64)
}

// validator mirrors the optional Validate check stack.Build applies
// to policies via type assertion; the wrapper must keep exposing it.
type validator interface {
	Validate() error
}

func (p timedPolicy) Name() string   { return p.inner.Name() }
func (p timedPolicy) Lookahead() int { return p.inner.Lookahead() }
func (p timedPolicy) Oracle() bool   { return p.inner.Oracle() }

func (p timedPolicy) Validate() error {
	if v, ok := p.inner.(validator); ok {
		return v.Validate()
	}
	return nil
}

func (p timedPolicy) NewPlanner() provision.Planner {
	return &timedPlanner{inner: p.inner.NewPlanner(), observe: p.observe}
}

type timedPlanner struct {
	inner   provision.Planner
	observe func(seconds float64)
}

func (p *timedPlanner) Plan(req provision.PlanRequest) (provision.PlanResult, error) {
	start := time.Now()
	res, err := p.inner.Plan(req)
	if p.observe != nil {
		p.observe(time.Since(start).Seconds())
	}
	return res, err
}

// NeedsFuture implements provision.FutureDemander by forwarding; a
// planner without the refinement always wants its policy's lookahead.
func (p *timedPlanner) NeedsFuture() bool {
	if fd, ok := p.inner.(provision.FutureDemander); ok {
		return fd.NeedsFuture()
	}
	return true
}
