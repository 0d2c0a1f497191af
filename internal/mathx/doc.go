// Package mathx provides the numerical substrate shared by the CloudMedia
// analysis and simulation packages: dense linear-system solving, M/M/m
// (Erlang) queueing formulas, random-variate generation for the workload
// distributions used in the paper (Zipf, bounded Pareto, exponential,
// non-homogeneous Poisson arrivals), and small summary statistics.
//
// Everything in this package is deterministic given its inputs; random
// variates take an explicit *rand.Rand so that callers control seeding.
package mathx
