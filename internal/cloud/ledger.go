package cloud

import "math"

// LedgerTotals is one billing aggregate: resource-hours and dollars split
// by tier. It is both the run's cumulative bill (Cloud.Bill) and the
// per-interval bill attached to every provisioning record
// (Cloud.Checkpoint).
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
func (t *LedgerTotals) Add(o LedgerTotals) { t.addScaled(o, 1) }

// addScaled adds sign·o into t, field by field; sign is ±1, so t − o is
// the exact IEEE difference.
func (t *LedgerTotals) addScaled(o LedgerTotals, sign int) {
	s := float64(sign)
	t.ReservedVMHours += s * o.ReservedVMHours
	t.OnDemandVMHours += s * o.OnDemandVMHours
	t.SpotVMHours += s * o.SpotVMHours
	t.GBHours += s * o.GBHours
	t.Interruptions += sign * o.Interruptions
	t.ReservedUSD += s * o.ReservedUSD
	t.OnDemandUSD += s * o.OnDemandUSD
	t.SpotUSD += s * o.SpotUSD
	t.UpfrontUSD += s * o.UpfrontUSD
	t.StorageUSD += s * o.StorageUSD
	t.TransferUSD += s * o.TransferUSD
}

// usd prices resource-seconds at an hourly catalog price times a plan
// rate. Costs and Bill both price through it, so the on-demand plan's
// tiers equal the catalog-price costs bit for bit.
func usd(seconds, pricePerHour, rate float64) float64 {
	return seconds * pricePerHour * rate / 3600
}

// readTimeLocked is the time a read at now prices the bill through: now,
// or the start of the latest allocation segment when now is earlier or
// not finite, so a read never bills a negative span. Caller holds c.mu.
func (c *Cloud) readTimeLocked(now float64) float64 {
	var t float64
	for i := range c.vms {
		t = max(t, c.vms[i].since)
	}
	for i := range c.nfs {
		t = max(t, c.nfs[i].since)
	}
	if now > t && !math.IsInf(now, 1) {
		t = now
	}
	return t
}

// termsStarted counts the reservation terms begun by t: term 0 at
// construction, and term k once t > k·T.
func (c *Cloud) termsStarted(t float64) float64 {
	term := c.pricing.TermHours * 3600
	n := max(1, math.Ceil(t/term))
	for n*term < t {
		n++
	}
	for n > 1 && (n-1)*term >= t {
		n--
	}
	return n
}

// Costs returns the VM rental and storage costs at catalog prices through
// simulated time now: the paper's literal pay-as-you-go accounting of the
// allocation integral. It changes no state.
func (c *Cloud) Costs(now float64) (vmCost, storageCost float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.readTimeLocked(now)
	for i, s := range c.vmSpecs {
		all, _, _ := c.vmSecondsLocked(i, t)
		vmCost += usd(all, s.PricePerHour, 1)
	}
	for i, s := range c.nfsSpecs {
		storageCost += usd(c.gbSecondsLocked(i, t), s.PricePerGBHour, 1)
	}
	return vmCost, storageCost
}

// Bill returns the cumulative bill through simulated time now under the
// cloud's pricing plan: the allocation integrals priced per tier, the
// reserved tier for every second up to now, the upfront fee of every term
// begun by now, and the interruptions and transfer charges so far. It
// changes no state, so it reads the same however often it is called.
func (c *Cloud) Bill(now float64) LedgerTotals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.billLocked(now)
}

// billLocked is Bill. Caller holds c.mu.
func (c *Cloud) billLocked(now float64) LedgerTotals {
	t := c.readTimeLocked(now)
	p := c.pricing
	b := LedgerTotals{Interruptions: c.interruptions, TransferUSD: c.transferUSD}
	var reserved int
	var spotSec, onDemandSec, gbSec float64
	for i, s := range c.vmSpecs {
		_, spot, onDemand := c.vmSecondsLocked(i, t)
		n := c.vms[i].reserved
		reserved += n
		spotSec += spot
		onDemandSec += onDemand
		b.ReservedUSD += usd(float64(n)*t, s.PricePerHour, p.ReservedRate)
		b.SpotUSD += usd(spot, s.PricePerHour, p.spotRate())
		b.OnDemandUSD += usd(onDemand, s.PricePerHour, p.onDemandRate())
	}
	for i, s := range c.nfsSpecs {
		gb := c.gbSecondsLocked(i, t)
		gbSec += gb
		b.StorageUSD += usd(gb, s.PricePerGBHour, p.storageRate())
	}
	b.ReservedVMHours = float64(reserved) * t / 3600
	b.SpotVMHours = spotSec / 3600
	b.OnDemandVMHours = onDemandSec / 3600
	b.GBHours = gbSec / 3600
	if c.upfrontPerTerm > 0 {
		b.UpfrontUSD = c.upfrontPerTerm * c.termsStarted(t)
	}
	return b
}

// Checkpoint returns the bill accrued since the previous Checkpoint (or
// since the start of the run), through simulated time now — the
// controller calls it once per provisioning round to stamp each
// IntervalRecord with the interval's dollars. The intervals sum to the
// cumulative Bill up to float rounding of the differences.
func (c *Cloud) Checkpoint(now float64) LedgerTotals {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.billLocked(now)
	out := b
	out.addScaled(c.checkpoint, -1)
	c.checkpoint = b
	return out
}

// ChargeTransfer adds inter-region transfer dollars to the bill — the
// failover path charges the migrated viewers' handoff bytes to the region
// they move into. A non-positive charge is dropped.
func (c *Cloud) ChargeTransfer(dollars float64) {
	if dollars <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.transferUSD += dollars
}

// Advance does nothing: the bill is priced from the allocation integral
// whenever it is read, so there is nothing to commit.
//
// Deprecated: only daybench's replay still calls it; ROADMAP item 5(c)
// deletes that replay, and Advance with it.
func (c *Cloud) Advance(now float64) {}
