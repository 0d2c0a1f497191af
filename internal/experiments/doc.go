// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. VI). Each runner assembles the full CloudMedia stack —
// workload trace, streaming simulator, cloud, broker, controller — runs it
// over simulated time, and emits the same rows/series the paper reports.
//
// Scale is configurable: the paper simulates a week of ~2500 concurrent
// users; the default scenario is reduced so the whole suite finishes on a
// laptop, and EXPERIMENTS.md records the scale each result was produced at.
// Shapes (who wins, by what factor, where crossovers fall) are the
// reproduction target, not absolute numbers.
package experiments
