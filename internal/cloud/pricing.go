package cloud

import (
	"fmt"
	"math"
)

// PricingPlan describes how rented resources turn into dollars: an
// on-demand tier (the paper's literal pay-as-you-go pricing) plus an
// optional reserved tier — a fraction of every VM cluster committed for a
// term at a discounted hourly rate in exchange for an upfront fee, the
// reserved-instance model of real IaaS price lists. The zero value is the
// pure on-demand plan. All rate fields are multipliers on the catalog
// prices (Table II/III), so one plan applies to any cluster catalog.
type PricingPlan struct {
	// Name identifies the plan in CLI/CSV output; "" means "on-demand".
	Name string
	// OnDemandRate multiplies the catalog hourly VM price for on-demand
	// VM-hours; 0 means 1 (the catalog price as-is).
	OnDemandRate float64
	// ReservedFraction is the fraction of each VM cluster's capacity
	// (MaxVMs) reserved for every term; 0 disables the reserved tier.
	// Reserved counts round up, so any positive fraction reserves at
	// least one VM per cluster.
	ReservedFraction float64
	// ReservedRate multiplies the catalog hourly VM price for reserved
	// capacity. Reserved VMs bill every hour of the term, used or idle —
	// that is the commitment being discounted.
	ReservedRate float64
	// TermHours is the reservation term; the upfront fee recharges at
	// each term start. Required when ReservedFraction > 0.
	TermHours float64
	// UpfrontFraction is the upfront fee per reserved VM and term, as a
	// fraction of that VM's on-demand cost for the whole term.
	UpfrontFraction float64
	// StorageRate multiplies the catalog GB-hour price; 0 means 1.
	StorageRate float64

	// SpotFraction is the fraction of each cluster's elastic allocation
	// (above the reserved count) that is fulfilled from the spot market;
	// 0 disables the spot tier. Spot counts round to nearest, so a small
	// elastic allocation can land entirely on either tier.
	SpotFraction float64
	// SpotRate multiplies the catalog hourly VM price for spot VM-hours;
	// 0 means 1 (no discount — a degenerate but legal plan).
	SpotRate float64
	// SpotInterruption is the per-hour probability that the provider
	// mass-preempts spot capacity. The billing ledger never rolls this
	// die itself: internal/fault drives the seeded interruption process
	// through the simulation backend, so runs stay deterministic per
	// seed. Plans price the risk; faults realize it.
	SpotInterruption float64
}

// OnDemandPricing returns the paper's literal pricing: every VM-hour and
// GB-hour at the catalog price, no reservations.
func OnDemandPricing() PricingPlan {
	return PricingPlan{Name: "on-demand"}
}

// ReservedPricing returns a reservation-heavy plan: 10% of every VM
// cluster committed per day at 45% of the catalog hourly rate plus a 25%
// upfront, overflow at the on-demand rate. For capacity that is busy
// around the clock this prices a VM-hour at 0.45+0.25 = 0.70× on-demand;
// capacity idle most of the day costs more than renting on demand —
// exactly the trade-off the costfrontier experiment measures. The 10%
// commitment is sized against the reduced-scale default scenario, where
// it covers the diurnal base load and leaves the daily swell on the
// on-demand tier (≈22 standard-VM-equivalents average at scale 1).
func ReservedPricing() PricingPlan {
	return PricingPlan{
		Name:             "reserved",
		ReservedFraction: 0.1,
		ReservedRate:     0.45,
		TermHours:        24,
		UpfrontFraction:  0.25,
	}
}

// SpotPricing returns a spot-heavy plan: 70% of every elastic allocation
// fulfilled from the spot market at 30% of the catalog rate, with a 25%
// per-hour chance of a mass-preemption event (realized by internal/fault's
// seeded process, never by the ledger). The blended VM-hour lands near
// 0.5× on-demand — the real-world spot bargain — but only policies that
// hedge the interruption risk keep quality through the preemptions, which
// is exactly the trade the resilience experiment measures.
func SpotPricing() PricingPlan {
	return PricingPlan{
		Name:             "spot",
		SpotFraction:     0.7,
		SpotRate:         0.3,
		SpotInterruption: 0.25,
	}
}

// ParsePricing converts a command-line spelling into a PricingPlan. It
// accepts "on-demand" (or "ondemand"), "reserved", and "spot".
func ParsePricing(s string) (PricingPlan, error) {
	switch s {
	case "on-demand", "ondemand":
		return OnDemandPricing(), nil
	case "reserved":
		return ReservedPricing(), nil
	case "spot":
		return SpotPricing(), nil
	default:
		return PricingPlan{}, fmt.Errorf("unknown pricing plan %q (want on-demand, reserved, or spot)", s)
	}
}

// Validate checks plan invariants.
func (p PricingPlan) Validate() error {
	switch {
	case p.OnDemandRate < 0:
		return fmt.Errorf("cloud: pricing %q: negative on-demand rate %v", p.DisplayName(), p.OnDemandRate)
	case p.ReservedFraction < 0 || p.ReservedFraction > 1:
		return fmt.Errorf("cloud: pricing %q: reserved fraction %v outside [0,1]", p.DisplayName(), p.ReservedFraction)
	case p.ReservedRate < 0:
		return fmt.Errorf("cloud: pricing %q: negative reserved rate %v", p.DisplayName(), p.ReservedRate)
	case p.UpfrontFraction < 0:
		return fmt.Errorf("cloud: pricing %q: negative upfront fraction %v", p.DisplayName(), p.UpfrontFraction)
	case p.StorageRate < 0:
		return fmt.Errorf("cloud: pricing %q: negative storage rate %v", p.DisplayName(), p.StorageRate)
	case p.ReservedFraction > 0 && p.TermHours <= 0:
		return fmt.Errorf("cloud: pricing %q: reserved tier needs a positive term, got %v h", p.DisplayName(), p.TermHours)
	case p.TermHours < 0:
		return fmt.Errorf("cloud: pricing %q: negative term %v h", p.DisplayName(), p.TermHours)
	case p.SpotFraction < 0 || p.SpotFraction > 1:
		return fmt.Errorf("cloud: pricing %q: spot fraction %v outside [0,1]", p.DisplayName(), p.SpotFraction)
	case p.SpotRate < 0:
		return fmt.Errorf("cloud: pricing %q: negative spot rate %v", p.DisplayName(), p.SpotRate)
	case p.SpotInterruption < 0 || p.SpotInterruption > 1:
		return fmt.Errorf("cloud: pricing %q: spot interruption probability %v outside [0,1]", p.DisplayName(), p.SpotInterruption)
	}
	return nil
}

// DisplayName returns Name, spelling the zero value "on-demand".
func (p PricingPlan) DisplayName() string {
	if p.Name == "" {
		return "on-demand"
	}
	return p.Name
}

// onDemandRate returns the normalized on-demand multiplier.
func (p PricingPlan) onDemandRate() float64 {
	if p.OnDemandRate == 0 {
		return 1
	}
	return p.OnDemandRate
}

// storageRate returns the normalized storage multiplier.
func (p PricingPlan) storageRate() float64 {
	if p.StorageRate == 0 {
		return 1
	}
	return p.StorageRate
}

// spotRate returns the normalized spot multiplier.
func (p PricingPlan) spotRate() float64 {
	if p.SpotRate == 0 {
		return 1
	}
	return p.SpotRate
}

// spotVMs returns how many of a cluster's elastic VMs (allocation above
// the reserved count) are spot instances: SpotFraction × elastic, rounded
// to nearest with the same 1e-9 epsilon guard reservedVMs uses so binary
// float artifacts never flip a whole count.
func (p PricingPlan) spotVMs(elastic int) int {
	if p.SpotFraction <= 0 || elastic <= 0 {
		return 0
	}
	n := int(math.Floor(p.SpotFraction*float64(elastic) + 0.5 + 1e-9))
	if n > elastic {
		n = elastic
	}
	return n
}

// reservedVMs returns the reserved-instance count for a cluster of the
// given capacity: ⌈fraction × capacity⌉, with an epsilon so binary float
// artifacts (0.2 × 75 = 15.000…002) do not round a whole count up.
func (p PricingPlan) reservedVMs(maxVMs int) int {
	if p.ReservedFraction <= 0 {
		return 0
	}
	n := int(math.Ceil(p.ReservedFraction*float64(maxVMs) - 1e-9))
	if n > maxVMs {
		n = maxVMs
	}
	return n
}
