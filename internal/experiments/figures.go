package experiments

import (
	"fmt"

	"cloudmedia/internal/mathx"
	"cloudmedia/internal/metrics"
	"cloudmedia/internal/modes"
	"cloudmedia/internal/stack"
)

// Result is the output of one experiment: the paper artifact's data as
// tables plus headline summary numbers for EXPERIMENTS.md.
type Result struct {
	ID      string
	Tables  []*metrics.Table
	Summary map[string]float64
}

// pinMode returns a copy of the scenario locked to the given mode. The
// experiments that pin a mode are defined over dynamically provisioned
// runs, so the static P2P baseline becomes cloud-assisted.
func pinMode(sc stack.Spec, m modes.Mode) stack.Spec {
	sc.Mode = modes.Dynamic(m)
	return sc
}

// Fig4 reproduces "Cloud capacity provisioning vs. usage": hourly
// provisioned and used cloud bandwidth for both modes. The reproduction
// targets: provisioned ≥ used in the great majority of hours, and P2P
// provisioning far below client-server.
func Fig4(sc stack.Spec) (*Result, error) {
	tls, err := RunTimelines(pinMode(sc, modes.ClientServer), pinMode(sc, modes.CloudAssisted))
	if err != nil {
		return nil, fmt.Errorf("fig4: %w", err)
	}
	cs, pp := tls[0], tls[1]

	tbl := metrics.NewTable("Fig. 4 — cloud capacity provisioning vs usage (Mbps)",
		"hour", "cs_reserved", "cs_used", "p2p_reserved", "p2p_used")
	for i := range cs.Hourlies {
		h := cs.Hourlies[i]
		var pr, pu float64
		if i < len(pp.Hourlies) {
			pr, pu = pp.Hourlies[i].ReservedMbps, pp.Hourlies[i].UsedMbps
		}
		tbl.AddRow(h.Hour, h.ReservedMbps, h.UsedMbps, pr, pu)
	}
	return &Result{
		ID:     "fig4",
		Tables: []*metrics.Table{tbl},
		Summary: map[string]float64{
			"cs_reserved_mean_mbps":  cs.MeanReservedMbps(),
			"p2p_reserved_mean_mbps": pp.MeanReservedMbps(),
			"p2p_over_cs_reserved":   ratio(pp.MeanReservedMbps(), cs.MeanReservedMbps()),
			"cs_covered_fraction":    cs.ReservedCoversUsedFraction(),
			"p2p_covered_fraction":   pp.ReservedCoversUsedFraction(),
		},
	}, nil
}

// Fig5 reproduces "Average streaming quality in the VoD system": the
// smooth-playback fraction over time for both modes. Paper averages:
// C/S ≈ 0.97, P2P ≈ 0.95 (P2P slightly worse).
func Fig5(sc stack.Spec) (*Result, error) {
	tls, err := RunTimelines(pinMode(sc, modes.ClientServer), pinMode(sc, modes.CloudAssisted))
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	cs, pp := tls[0], tls[1]
	tbl := metrics.NewTable("Fig. 5 — average streaming quality", "hour", "cs_quality", "p2p_quality")
	for i := range cs.Snapshots {
		s := cs.Snapshots[i]
		var pq float64
		if i < len(pp.Snapshots) {
			pq = pp.Snapshots[i].Quality
		}
		tbl.AddRow(s.Time/3600, s.Quality, pq)
	}
	return &Result{
		ID:     "fig5",
		Tables: []*metrics.Table{tbl},
		Summary: map[string]float64{
			"cs_quality_mean":  cs.MeanQuality,
			"p2p_quality_mean": pp.MeanQuality,
		},
	}, nil
}

// Fig6 reproduces "Channel streaming quality vs. channel size": a scatter
// of per-channel quality against the channel's viewer count across a day
// (client-server). The target shape: quality is good regardless of size.
func Fig6(sc stack.Spec) (*Result, error) {
	sc = pinMode(sc, modes.ClientServer)
	tl, err := RunTimeline(sc)
	if err != nil {
		return nil, fmt.Errorf("fig6 run: %w", err)
	}
	tbl := metrics.NewTable("Fig. 6 — channel streaming quality vs channel size (C/S)",
		"users", "quality")
	var sizes, qualities []float64
	for _, snap := range tl.Snapshots {
		for c, n := range snap.PerChannelUsers {
			if n == 0 {
				continue
			}
			tbl.AddRow(n, snap.PerChannelQuality[c])
			sizes = append(sizes, float64(n))
			qualities = append(qualities, snap.PerChannelQuality[c])
		}
	}
	// Split the scatter at the median channel size so both buckets are
	// populated regardless of scale; the paper's claim is that quality is
	// good on both sides.
	medianSize := mathx.Percentile(sizes, 0.5)
	var small, large []float64
	for i, n := range sizes {
		if n <= medianSize {
			small = append(small, qualities[i])
		} else {
			large = append(large, qualities[i])
		}
	}
	return &Result{
		ID:     "fig6",
		Tables: []*metrics.Table{tbl},
		Summary: map[string]float64{
			"small_channel_quality": mean(small),
			"large_channel_quality": mean(large),
			"median_channel_size":   medianSize,
		},
	}, nil
}

// Fig7 reproduces "Cloud capacity provisioning vs. channel size": per
// channel, provisioned bandwidth against viewer count, for both modes. The
// target shape: roughly linear growth for client-server, much flatter
// (well-scaling) for P2P.
func Fig7(sc stack.Spec) (*Result, error) {
	tls, err := RunTimelines(pinMode(sc, modes.ClientServer), pinMode(sc, modes.CloudAssisted))
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	cs, pp := tls[0], tls[1]
	tbl := metrics.NewTable("Fig. 7 — provisioned bandwidth vs channel size (Mbps)",
		"mode", "users", "bandwidth_mbps")
	collect := func(tl *Timeline, mode string) (xs, ys []float64) {
		for _, snap := range tl.Snapshots {
			for c, n := range snap.PerChannelUsers {
				if n == 0 {
					continue
				}
				tbl.AddRow(mode, n, snap.PerChannelReservedMbps[c])
				xs = append(xs, float64(n))
				ys = append(ys, snap.PerChannelReservedMbps[c])
			}
		}
		return xs, ys
	}
	csX, csY := collect(cs, "cs")
	ppX, ppY := collect(pp, "p2p")
	return &Result{
		ID:     "fig7",
		Tables: []*metrics.Table{tbl},
		Summary: map[string]float64{
			"cs_mbps_per_user":  slopeThroughOrigin(csX, csY),
			"p2p_mbps_per_user": slopeThroughOrigin(ppX, ppY),
		},
	}, nil
}

// Fig8 reproduces "Evolution of aggregate storage utility" for four
// channels of different sizes (P2P mode): utilities track popularity, the
// adaptiveness claim of Sec. VI-C.
func Fig8(sc stack.Spec) (*Result, error) {
	return utilityFigure(sc, "fig8", "Fig. 8 — aggregate storage utility (P2P)", func(r intervalUtilities) map[int]float64 {
		return r.storage
	})
}

// Fig9 reproduces "Evolution of aggregate VM utility" for the same four
// channels (P2P mode).
func Fig9(sc stack.Spec) (*Result, error) {
	return utilityFigure(sc, "fig9", "Fig. 9 — aggregate VM utility (P2P)", func(r intervalUtilities) map[int]float64 {
		return r.vm
	})
}

type intervalUtilities struct {
	storage map[int]float64
	vm      map[int]float64
}

func utilityFigure(sc stack.Spec, id, title string, pick func(intervalUtilities) map[int]float64) (*Result, error) {
	sc = pinMode(sc, modes.CloudAssisted)
	tl, err := RunTimeline(sc)
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", id, err)
	}
	// Representative channels spread across the popularity ranking, like
	// the paper's sizes 600/200/100/60.
	channels := representativeChannels(sc.Workload.Channels)
	headers := []string{"hour"}
	for _, c := range channels {
		headers = append(headers, fmt.Sprintf("channel_%d", c))
	}
	tbl := metrics.NewTable(title, headers...)
	sums := make(map[int]float64, len(channels))
	for _, rec := range tl.Records {
		u := pick(intervalUtilities{storage: rec.StoragePlan.UtilityPerChannel, vm: rec.VMPlan.UtilityPerChannel})
		row := make([]any, 0, len(channels)+1)
		row = append(row, rec.Time/3600)
		for _, c := range channels {
			row = append(row, u[c])
			sums[c] += u[c]
		}
		tbl.AddRow(row...)
	}
	summary := make(map[string]float64, len(channels))
	n := float64(len(tl.Records))
	for _, c := range channels {
		if n > 0 {
			summary[fmt.Sprintf("channel_%d_mean_utility", c)] = sums[c] / n
		}
	}
	return &Result{ID: id, Tables: []*metrics.Table{tbl}, Summary: summary}, nil
}

// representativeChannels picks four channels across the Zipf ranking.
func representativeChannels(n int) []int {
	picks := []int{0, n / 4, n / 2, n - 1}
	out := picks[:0]
	seen := map[int]bool{}
	for _, p := range picks {
		if p < 0 || p >= n || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// Fig10 reproduces "Evolution of overall VM rental cost": hourly dollars
// for both modes. Paper averages: C/S ≈ $48/h, P2P ≈ $4.27/h.
func Fig10(sc stack.Spec) (*Result, error) {
	tls, err := RunTimelines(pinMode(sc, modes.ClientServer), pinMode(sc, modes.CloudAssisted))
	if err != nil {
		return nil, fmt.Errorf("fig10: %w", err)
	}
	cs, pp := tls[0], tls[1]
	tbl := metrics.NewTable("Fig. 10 — overall VM rental cost ($/hour)", "hour", "cs_cost", "p2p_cost")
	for i := range cs.Hourlies {
		var pc float64
		if i < len(pp.Hourlies) {
			pc = pp.Hourlies[i].VMCostPerHour
		}
		tbl.AddRow(cs.Hourlies[i].Hour, cs.Hourlies[i].VMCostPerHour, pc)
	}
	return &Result{
		ID:     "fig10",
		Tables: []*metrics.Table{tbl},
		Summary: map[string]float64{
			"cs_cost_per_hour":     cs.MeanHourlyVMCost(),
			"p2p_cost_per_hour":    pp.MeanHourlyVMCost(),
			"p2p_over_cs_cost":     ratio(pp.MeanHourlyVMCost(), cs.MeanHourlyVMCost()),
			"storage_cost_per_day": ratio(pp.StorageCostTotal, sc.Hours/24),
		},
	}, nil
}

// Fig11 reproduces "Average streaming quality ... at different ratios of
// peer average upload capacity over the streaming rate": P2P runs with
// mean uplink at 0.9, 1.0, and 1.2 × r. Target: satisfactory quality in
// all cases (the cloud absorbs the shortfall).
func Fig11(sc stack.Spec) (*Result, error) {
	ratios := []float64{0.9, 1.0, 1.2}
	tbl := metrics.NewTable("Fig. 11 — P2P streaming quality vs peer uplink ratio", "hour", "r0.9", "r1.0", "r1.2")
	summary := make(map[string]float64, len(ratios))
	family := make([]stack.Spec, len(ratios))
	for i, r := range ratios {
		family[i] = pinMode(sc, modes.CloudAssisted)
		family[i].UplinkRatio = r
	}
	runs, err := RunTimelines(family...)
	if err != nil {
		return nil, fmt.Errorf("fig11: %w", err)
	}
	for i, r := range ratios {
		summary[fmt.Sprintf("quality_ratio_%.1f", r)] = runs[i].MeanQuality
	}
	for i := range runs[0].Snapshots {
		row := []any{runs[0].Snapshots[i].Time / 3600}
		for _, tl := range runs {
			if i < len(tl.Snapshots) {
				row = append(row, tl.Snapshots[i].Quality)
			} else {
				row = append(row, "")
			}
		}
		tbl.AddRow(row...)
	}
	return &Result{ID: "fig11", Tables: []*metrics.Table{tbl}, Summary: summary}, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// slopeThroughOrigin fits y = kx by least squares.
func slopeThroughOrigin(xs, ys []float64) float64 {
	var xy, xx float64
	for i := range xs {
		xy += xs[i] * ys[i]
		xx += xs[i] * xs[i]
	}
	if xx == 0 {
		return 0
	}
	return xy / xx
}
