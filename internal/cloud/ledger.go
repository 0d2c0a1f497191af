package cloud

import "sync"

// LedgerTotals is one billing aggregate: resource-hours and dollars split
// by tier. It is both the run's cumulative bill (Ledger.Totals) and the
// per-interval accrual attached to every provisioning record
// (Ledger.Checkpoint).
type LedgerTotals struct {
	// ReservedVMHours is the committed capacity billed at the reserved
	// rate (every reserved VM, every hour of the term, used or idle).
	ReservedVMHours float64
	// OnDemandVMHours is the elastic allocation above the reserved count
	// that the plan keeps off the spot market, billed at the on-demand
	// rate.
	OnDemandVMHours float64
	// SpotVMHours is the elastic allocation fulfilled from the spot
	// market (PricingPlan.SpotFraction of every cluster's elastic VMs),
	// billed at the discounted spot rate.
	SpotVMHours float64
	// GBHours is the NFS storage footprint integrated over time.
	GBHours float64
	// Interruptions counts the spot mass-preemption events charged to
	// this window (fault injection's realized interruption process).
	Interruptions int

	// ReservedUSD, OnDemandUSD, SpotUSD, UpfrontUSD, StorageUSD, and
	// TransferUSD split the dollars by tier; TotalUSD sums them.
	ReservedUSD float64
	OnDemandUSD float64
	SpotUSD     float64
	UpfrontUSD  float64
	StorageUSD  float64
	// TransferUSD is the inter-region data-transfer spend: viewer
	// migration during cross-region failover, charged to the region the
	// viewers move into.
	TransferUSD float64
}

// TotalUSD is the all-in bill.
func (t LedgerTotals) TotalUSD() float64 {
	return t.ReservedUSD + t.OnDemandUSD + t.SpotUSD + t.UpfrontUSD + t.StorageUSD + t.TransferUSD
}

// VMCostUSD is the VM share of the bill (reserved + upfront + on-demand +
// spot).
func (t LedgerTotals) VMCostUSD() float64 {
	return t.ReservedUSD + t.OnDemandUSD + t.SpotUSD + t.UpfrontUSD
}

// Add accumulates o into t, field by field.
func (t *LedgerTotals) Add(o LedgerTotals) {
	t.ReservedVMHours += o.ReservedVMHours
	t.OnDemandVMHours += o.OnDemandVMHours
	t.SpotVMHours += o.SpotVMHours
	t.GBHours += o.GBHours
	t.Interruptions += o.Interruptions
	t.ReservedUSD += o.ReservedUSD
	t.OnDemandUSD += o.OnDemandUSD
	t.SpotUSD += o.SpotUSD
	t.UpfrontUSD += o.UpfrontUSD
	t.StorageUSD += o.StorageUSD
	t.TransferUSD += o.TransferUSD
}

// Ledger accrues a run's cloud bill under a PricingPlan: VM-hours split
// reserved/on-demand, GB-hours, upfront reservation fees at each term
// start, and dollars per tier. The Cloud drives it from the same billing
// integrator that maintains the legacy cost counters, so ledger totals
// cover exactly the same simulated time. All methods are safe for
// concurrent use.
type Ledger struct {
	mu   sync.Mutex
	plan PricingPlan

	// reserved and upfrontPerTerm are resolved against the catalog once,
	// in registration order, so accrual is deterministic.
	reserved       map[string]int
	upfrontPerTerm float64
	nextTerm       float64

	totals   LedgerTotals
	interval LedgerTotals
}

// vmUsage is one VM cluster's allocation over an accrual window, in
// catalog registration order (keeping float accumulation deterministic).
type vmUsage struct {
	name      string
	price     float64 // catalog $/VM-hour
	allocated int
}

// storageUsage is one NFS cluster's footprint over an accrual window.
type storageUsage struct {
	price float64 // catalog $/GB-hour
	gb    float64
}

// newLedger resolves the plan against the catalog and charges the first
// term's upfront fee at t=0.
func newLedger(plan PricingPlan, vmSpecs []VMClusterSpec) *Ledger {
	l := &Ledger{plan: plan, reserved: make(map[string]int, len(vmSpecs))}
	for _, s := range vmSpecs {
		n := plan.reservedVMs(s.MaxVMs)
		l.reserved[s.Name] = n
		l.upfrontPerTerm += float64(n) * s.PricePerHour * plan.onDemandRate() * plan.TermHours * plan.UpfrontFraction
	}
	if l.upfrontPerTerm > 0 {
		l.chargeUpfrontLocked()
		l.nextTerm = plan.TermHours * 3600 // simulated seconds
	}
	return l
}

// Plan returns the pricing plan the ledger bills under.
func (l *Ledger) Plan() PricingPlan { return l.plan }

// ReservedVMs returns the resolved reserved-instance count for a cluster.
func (l *Ledger) ReservedVMs(cluster string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reserved[cluster]
}

func (l *Ledger) chargeUpfrontLocked() {
	l.totals.UpfrontUSD += l.upfrontPerTerm
	l.interval.UpfrontUSD += l.upfrontPerTerm
}

// accrue integrates the bill over [from, to) given the per-cluster
// allocations (constant across the window — the Cloud calls it before
// every allocation change). vms and nfs are in catalog registration
// order, keeping float accumulation deterministic.
func (l *Ledger) accrue(from, to float64, vms []vmUsage, nfs []storageUsage) {
	if to <= from {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Recharge the upfront fee for every term that starts inside the
	// window (terms are aligned to t=0; the first term is charged at
	// construction).
	for l.upfrontPerTerm > 0 && l.nextTerm < to {
		l.chargeUpfrontLocked()
		l.nextTerm += l.plan.TermHours * 3600
	}
	hours := (to - from) / 3600
	var inc LedgerTotals
	for _, u := range vms {
		reserved := l.reserved[u.name]
		if reserved > 0 {
			inc.ReservedVMHours += float64(reserved) * hours
			inc.ReservedUSD += float64(reserved) * u.price * l.plan.ReservedRate * hours
		}
		if elastic := u.allocated - reserved; elastic > 0 {
			spot := l.plan.spotVMs(elastic)
			if spot > 0 {
				inc.SpotVMHours += float64(spot) * hours
				inc.SpotUSD += float64(spot) * u.price * l.plan.spotRate() * hours
			}
			if onDemand := elastic - spot; onDemand > 0 {
				inc.OnDemandVMHours += float64(onDemand) * hours
				inc.OnDemandUSD += float64(onDemand) * u.price * l.plan.onDemandRate() * hours
			}
		}
	}
	for _, u := range nfs {
		inc.GBHours += u.gb * hours
		inc.StorageUSD += u.gb * u.price * l.plan.storageRate() * hours
	}
	l.totals.Add(inc)
	l.interval.Add(inc)
}

// Totals returns the cumulative bill accrued so far.
func (l *Ledger) Totals() LedgerTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totals
}

// Checkpoint returns the bill accrued since the previous Checkpoint (or
// since the start of the run) and starts a fresh interval accumulator —
// the controller calls it once per provisioning round to stamp each
// IntervalRecord with the interval's dollars.
func (l *Ledger) Checkpoint() LedgerTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.interval
	l.interval = LedgerTotals{}
	return out
}

// RecordInterruption charges one spot mass-preemption event to the bill
// (the event counter, not dollars — the dollars show up as the re-rented
// replacement capacity).
func (l *Ledger) RecordInterruption() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.totals.Interruptions++
	l.interval.Interruptions++
}

// ChargeTransfer adds inter-region transfer dollars to the bill — the
// failover path charges the migrated viewers' handoff bytes to the region
// they move into. A non-positive charge is dropped.
func (l *Ledger) ChargeTransfer(usd float64) {
	if usd <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.totals.TransferUSD += usd
	l.interval.TransferUSD += usd
}
