package experiments

import (
	"fmt"
	"runtime"
	"strings"

	cmo "cmo"
	"cmo/internal/workload"
)

// Fig6Point is one x-position of Figure 6: the Mcad1-like application
// built with a given selectivity percentage.
type Fig6Point struct {
	Percent       float64
	SelectedSites int
	TotalSites    int
	SelectedLines int
	TotalLines    int
	BuildNanos    int64
	HLONanos      int64
	// InlinedInstrs is the IL HLO copied into callers by inlining: the
	// optimizer work selection adds, as a deterministic count.
	InlinedInstrs int
	RunCycles     int64
	// Speedup is run-time improvement over the 0% (pure O2+P) build.
	Speedup float64
}

// Figure6 regenerates the selectivity sweep: as the selection
// percentage grows, compile time grows roughly with the amount of
// code optimized, while run time saturates once the hot 20 % or so of
// the application is covered (paper: "about 80% of the code has no
// appreciable effect on performance").
func Figure6(cfg Config) ([]Fig6Point, error) {
	p := McadPrograms(cfg)[0]
	mods := sources(p.Spec)
	db, err := cmo.Train(mods, []map[string]int64{trainInputs(p.Spec)}, cmo.Options{})
	if err != nil {
		return nil, fmt.Errorf("figure6 train: %w", err)
	}

	// Warm up the process (page cache, allocator) so the first sweep
	// point does not pay a cold-start premium.
	if _, err := cmo.BuildSource(mods, cmo.Options{
		Level: cmo.O4, PBO: true, DB: db, SelectPercent: 50,
		Volatile: workload.InputGlobals(),
	}); err != nil {
		return nil, fmt.Errorf("figure6 warmup: %w", err)
	}

	percents := []float64{0, 1, 2, 5, 10, 20, 40, 70, 100}
	// Best-of-5 wall time per point, with the repetitions interleaved
	// across the sweep: build timing is the one non-deterministic
	// measurement in it, and a burst of load from elsewhere then slows
	// one repetition of every point instead of every repetition of one
	// point. A tiny-configuration build takes a fraction of a second,
	// so such a burst can cover all of one point's repetitions.
	best := make([]*cmo.Build, len(percents))
	for rep := 0; rep < 5; rep++ {
		for i, pct := range percents {
			// Start every build from a collected heap, so no build pays
			// for the garbage of the one before it.
			runtime.GC()
			nb, err := cmo.BuildSource(mods, cmo.Options{
				Level: cmo.O4, PBO: true, DB: db, SelectPercent: pct,
				Volatile: workload.InputGlobals(),
			})
			if err != nil {
				return nil, fmt.Errorf("figure6 %.0f%%: %w", pct, err)
			}
			if best[i] == nil || nb.Stats.TotalNanos < best[i].Stats.TotalNanos {
				best[i] = nb
			}
		}
	}
	var points []Fig6Point
	var baseCycles int64
	for i, pct := range percents {
		b := best[i]
		bestNanos := b.Stats.TotalNanos
		rr, err := b.Run(refInputs(p.Spec), 0)
		if err != nil {
			return nil, fmt.Errorf("figure6 run %.0f%%: %w", pct, err)
		}
		pt := Fig6Point{
			Percent:       pct,
			SelectedSites: b.Stats.SelectedSites,
			TotalSites:    b.Stats.TotalSites,
			SelectedLines: b.Stats.SelectedLines,
			TotalLines:    b.Stats.TotalLines,
			BuildNanos:    bestNanos,
			HLONanos:      b.Stats.HLONanos,
			InlinedInstrs: b.Stats.HLO.InlinedInstrs,
			RunCycles:     rr.Stats.Cycles,
		}
		if pct == 0 {
			baseCycles = pt.RunCycles
		}
		if baseCycles > 0 {
			pt.Speedup = float64(baseCycles) / float64(pt.RunCycles)
		}
		points = append(points, pt)
		cfg.logf("figure6: %5.1f%% sites=%5d/%5d lines=%6d/%6d hlo=%7.2f build=%8.2f ms run=%9d cycles speedup=%.3f\n",
			pct, pt.SelectedSites, pt.TotalSites, pt.SelectedLines, pt.TotalLines,
			ms(pt.HLONanos), ms(pt.BuildNanos), pt.RunCycles, pt.Speedup)
	}
	return points, nil
}

// RenderFigure6 formats the sweep.
func RenderFigure6(points []Fig6Point) string {
	var sb strings.Builder
	sb.WriteString("Figure 6: selectivity sweep on the Mcad1-like application\n")
	sb.WriteString(fmt.Sprintf("%8s %12s %14s %12s %9s %12s %9s\n",
		"percent", "sites", "lines in CMO", "build ms", "inlined", "run cycles", "speedup"))
	for _, p := range points {
		sb.WriteString(fmt.Sprintf("%7.1f%% %6d/%-6d %7d/%-7d %12.2f %9d %12d %9.3f\n",
			p.Percent, p.SelectedSites, p.TotalSites, p.SelectedLines, p.TotalLines,
			ms(p.BuildNanos), p.InlinedInstrs, p.RunCycles, p.Speedup))
	}
	return sb.String()
}
