// Package core implements the paper's primary contribution: the dynamic
// cloud provisioning algorithm of Sec. V-B that a VoD provider runs every
// interval T (one hour in the paper).
//
// Each interval the Controller:
//
//  1. collects the interval's statistics from the tracker — per-channel
//     arrival rates Λ(c), empirical transfer matrices P(c), and (in P2P
//     mode) the mean peer uplink u;
//  2. derives the equilibrium per-chunk upload demand via the Jackson
//     analysis (package queueing) and, in P2P mode, subtracts the expected
//     peer contribution (package p2p) to get the cloud residual Δ(c,i);
//  3. runs the storage-rental and VM-configuration heuristics (package
//     provision) against the cloud's catalog, which it read once when it
//     was built, and the configured budgets;
//  4. submits the resulting SLA reconfiguration to the cloud and applies
//     the per-chunk capacities to the running system — capacity increases
//     take effect only after the VM boot latency, decreases immediately.
//
// Infeasible budgets are handled by geometrically scaling the demand until
// the heuristics fit, with the shortfall recorded in the interval record —
// the paper's "signal to the provider that the budget should be increased".
package core
