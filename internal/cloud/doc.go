// Package cloud simulates the IaaS infrastructure of Sec. III-A: virtual
// clusters of VMs and NFS storage clusters, fronted by the broker / SLA
// negotiator / request monitor / scheduler modules of Fig. 1, with
// usage-time billing following the Amazon EC2/S3 charging model.
//
// The package is a catalog, an allocation and a bill. Requests reach the
// allocation through the Broker, the SLA negotiator and request monitor
// of Fig. 1; spot kills through PreemptSpot. The paper's
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
//     GB-hour. The cloud keeps one integral of each cluster's allocation,
//     closed only when the allocation changes, and prices it when it is
//     read: Costs at the paper's literal catalog prices, Bill under a
//     PricingPlan with reserved, on-demand and spot tiers, and Checkpoint
//     per provisioning interval. Costs and Bill change nothing, so the
//     dollars do not depend on how often anyone reads them — see
//     DESIGN.md "Pricing and the billing ledger".
//
// Time is an explicit float64 of simulated seconds supplied by the caller;
// the package never consults the wall clock, keeping experiments
// deterministic and fast.
package cloud
