package main

import (
	"cloudmedia/internal/provision"
	"cloudmedia/internal/workload"
	"cloudmedia/pkg/simulate"
)

// The wrappers below sit on the scenario's public seams and report every
// call to the traced day. They are transparent: each forwards every
// optional interface the program probes for (BatchSource, Validate,
// FutureDemander), so the wrapped run's Report is identical to the bare
// one.

// validator is the optional Validate method the scenario and the
// controller probe predictors and policies for.
type validator interface {
	Validate() error
}

func validateInner(v any) error {
	if v, ok := v.(validator); ok {
		return v.Validate()
	}
	return nil
}

// tracedSource times every demand-plane query as a workload-layer call.
type tracedSource struct {
	inner simulate.Source
	day   *tracedDay
}

var (
	_ simulate.Source      = (*tracedSource)(nil)
	_ workload.BatchSource = (*tracedSource)(nil)
)

func (s *tracedSource) NumChannels() int { return s.inner.NumChannels() }

func (s *tracedSource) Rate(channel int, t float64) (float64, error) {
	start := s.day.tr.Now()
	r, err := s.inner.Rate(channel, t)
	s.day.sourceCall(start)
	return r, err
}

func (s *tracedSource) MaxRate(channel int) (float64, error) {
	start := s.day.tr.Now()
	r, err := s.inner.MaxRate(channel)
	s.day.sourceCall(start)
	return r, err
}

func (s *tracedSource) MeanRate(channel int, start, end float64) (float64, error) {
	at := s.day.tr.Now()
	r, err := s.inner.MeanRate(channel, start, end)
	s.day.sourceCall(at)
	return r, err
}

// RatesInto keeps the inner source's batched path (or the per-channel
// fallback) behind the wrapper.
func (s *tracedSource) RatesInto(t float64, dst []float64) error {
	start := s.day.tr.Now()
	err := workload.RatesInto(s.inner, t, dst)
	s.day.sourceCall(start)
	return err
}

func (s *tracedSource) CloneSource() simulate.Source {
	return &tracedSource{inner: s.inner.CloneSource(), day: s.day}
}

func (s *tracedSource) Validate() error { return s.inner.Validate() }

// tracedPredictor times every forecast and records its value for the
// sizing replay.
type tracedPredictor struct {
	inner simulate.Predictor
	day   *tracedDay
}

func (p tracedPredictor) Predict(history []float64) float64 {
	p.day.beforePredict()
	start := p.day.tr.Now()
	v := p.inner.Predict(history)
	p.day.predicted(v, start)
	return v
}

func (p tracedPredictor) Validate() error { return validateInner(p.inner) }

// tracedPolicy hands the controller planners that record one span per
// plan.
type tracedPolicy struct {
	inner simulate.Policy
	day   *tracedDay
}

func (p tracedPolicy) Name() string    { return p.inner.Name() }
func (p tracedPolicy) Lookahead() int  { return p.inner.Lookahead() }
func (p tracedPolicy) Oracle() bool    { return p.inner.Oracle() }
func (p tracedPolicy) Validate() error { return validateInner(p.inner) }

func (p tracedPolicy) NewPlanner() provision.Planner {
	return &tracedPlanner{inner: p.inner.NewPlanner(), day: p.day}
}

type tracedPlanner struct {
	inner provision.Planner
	day   *tracedDay
}

func (p *tracedPlanner) Plan(req provision.PlanRequest) (provision.PlanResult, error) {
	id := p.day.tr.Begin("provision.plan", p.day.roundID)
	res, err := p.inner.Plan(req)
	p.day.tr.End(id)
	return res, err
}

// NeedsFuture forwards provision.FutureDemander; a planner without it
// always wants its policy's lookahead, which is the controller's default.
func (p *tracedPlanner) NeedsFuture() bool {
	if fd, ok := p.inner.(provision.FutureDemander); ok {
		return fd.NeedsFuture()
	}
	return true
}
