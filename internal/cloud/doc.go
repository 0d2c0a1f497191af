// Package cloud simulates the IaaS infrastructure of Sec. III-A: virtual
// clusters of VMs and NFS storage clusters, fronted by the broker / SLA
// negotiator / request monitor / scheduler modules of Fig. 1, with
// usage-time billing following the Amazon EC2/S3 charging model.
//
// The package is a catalog, an allocation and a bill. The paper's
// evaluation exercises four properties of the physical testbed; this
// package models the catalogs and the billing, and names the other two
// for the modules that own them:
//
//   - cluster catalogs — Tables II and III ship as DefaultVMClusters and
//     DefaultNFSClusters;
//   - per-VM bandwidth — DefaultVMBandwidth is the paper's R (10 Mbps).
//     A run's R is its channel configuration's (queueing.Config), which
//     the controller plans and applies with;
//   - VM lifecycle latency — launching a VM takes ~25 s
//     (DefaultBootSeconds, BootLatency). A VM bills from its request; the
//     controller raises the serving capacity a scale-up buys one boot
//     latency later, and lowers it at once;
//   - billing — VM rental is charged per allocated VM-hour and storage per
//     GB-hour, integrated continuously over simulated time. Alongside the
//     paper's literal catalog-price accounting (Costs), a Ledger bills the
//     same allocation trajectory under a PricingPlan with reserved and
//     on-demand tiers, splitting dollars per tier and per provisioning
//     interval (Checkpoint) — see DESIGN.md "Pricing and the billing
//     ledger".
//
// Time is an explicit float64 of simulated seconds supplied by the caller;
// the package never consults the wall clock, keeping experiments
// deterministic and fast.
package cloud
