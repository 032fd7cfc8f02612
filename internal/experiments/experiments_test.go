package experiments

import (
	"testing"
)

// tiny keeps test runtime reasonable while preserving the shapes.
func tiny() Config { return Config{Scale: 0.5} }

func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Figure1(tiny())
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	if len(rows) != 11 {
		t.Fatalf("got %d rows, want 11 (8 SPEC-like + 3 MCAD-like)", len(rows))
	}
	var mcadBoth, specBoth []float64
	for _, r := range rows {
		// Every program benefits to some degree from the full
		// combination (paper: "all programs benefit").
		if r.SpeedupBoth <= 1.0 {
			t.Errorf("%s: CMO+PBO speedup %.3f <= 1", r.Program, r.SpeedupBoth)
		}
		if r.SpeedupPBO <= 0.95 {
			t.Errorf("%s: PBO made things much worse: %.3f", r.Program, r.SpeedupPBO)
		}
		// CMO+PBO should essentially dominate PBO alone.
		if r.SpeedupBoth < r.SpeedupPBO*0.98 {
			t.Errorf("%s: CMO+PBO (%.3f) well below PBO alone (%.3f)", r.Program, r.SpeedupBoth, r.SpeedupPBO)
		}
		if r.MCAD {
			mcadBoth = append(mcadBoth, r.SpeedupBoth)
			// Pure CMO must be visibly costlier to build than the
			// selective shipped configuration (the scaled analogue of
			// the paper's "never able to compile Mcad1 without
			// profile data").
			if r.CMOCostFactor < 1.2 {
				t.Errorf("%s: pure CMO build only %.2fx the selective build", r.Program, r.CMOCostFactor)
			}
		} else {
			specBoth = append(specBoth, r.SpeedupBoth)
		}
	}
	// The ISV-like applications should be among the better results
	// (paper: "speedups seen in the ISV applications are among the
	// better results"). Compare means.
	if mean(mcadBoth) <= mean(specBoth)*0.95 {
		t.Errorf("MCAD-like mean speedup %.3f not in the upper range of SPEC-like %.3f",
			mean(mcadBoth), mean(specBoth))
	}
	t.Logf("\n%s", RenderFigure1(rows))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	points, err := Figure4(tiny())
	if err != nil {
		t.Fatalf("Figure4: %v", err)
	}
	if len(points) < 4 {
		t.Fatalf("too few points: %d", len(points))
	}
	first, last := points[0], points[len(points)-1]
	if last.Lines <= first.Lines {
		t.Fatal("lines did not grow")
	}
	// HLO memory must grow sub-linearly: bytes-per-line falls.
	bplFirst := float64(first.HLOPeak) / float64(first.Lines)
	bplLast := float64(last.HLOPeak) / float64(last.Lines)
	if bplLast >= bplFirst*0.8 {
		t.Errorf("HLO bytes/line did not fall sub-linearly: %.1f -> %.1f", bplFirst, bplLast)
	}
	// The overall compiler curve keeps growing.
	if last.CompilerPeak <= first.CompilerPeak {
		t.Error("compiler total did not grow with program size")
	}
	// HLO growth factor must be well below the line growth factor.
	lineGrowth := float64(last.Lines) / float64(first.Lines)
	hloGrowth := float64(last.HLOPeak) / float64(first.HLOPeak)
	if hloGrowth > lineGrowth*0.7 {
		t.Errorf("HLO growth %.2fx vs line growth %.2fx: not sub-linear enough", hloGrowth, lineGrowth)
	}
	t.Logf("\n%s", RenderFigure4(points))
}

func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	points, err := Figure5(tiny())
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	if len(points) != 4 {
		t.Fatalf("want 4 configurations, got %d", len(points))
	}
	// Memory falls monotonically across the dial.
	for i := 1; i < len(points); i++ {
		if points[i].PeakBytes >= points[i-1].PeakBytes {
			t.Errorf("%s peak %d not below %s peak %d",
				points[i].Name, points[i].PeakBytes, points[i-1].Name, points[i-1].PeakBytes)
		}
	}
	// The compaction configurations actually did compaction work, and
	// the disk configuration actually hit the repository.
	if points[1].Compactions == 0 {
		t.Error("IR compaction config never compacted")
	}
	if points[3].DiskWrites == 0 {
		t.Error("disk config never wrote the repository")
	}
	// NAIM-off spends no time compacting.
	if points[0].CompactNanos != 0 || points[0].DiskNanos != 0 {
		t.Error("NAIM-off config reported compaction/disk time")
	}
	t.Logf("\n%s", RenderFigure5(points))
}

func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	points, err := Figure6(tiny())
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	if len(points) < 6 {
		t.Fatalf("too few points: %d", len(points))
	}
	// Selected lines grow monotonically with the percentage.
	for i := 1; i < len(points); i++ {
		if points[i].SelectedLines < points[i-1].SelectedLines {
			t.Errorf("selected lines fell from %d to %d at %.0f%%",
				points[i-1].SelectedLines, points[i].SelectedLines, points[i].Percent)
		}
	}
	// Run time improves and then plateaus: the 20% build must capture
	// nearly all of the 100% build's benefit.
	base := points[0].RunCycles
	var at20, at100 int64
	for _, p := range points {
		if p.Percent == 20 {
			at20 = p.RunCycles
		}
		if p.Percent == 100 {
			at100 = p.RunCycles
		}
	}
	if at100 >= base {
		t.Fatalf("full CMO+PBO (%d cycles) not faster than 0%% (%d)", at100, base)
	}
	gain20 := float64(base - at20)
	gain100 := float64(base - at100)
	// The paper's knee claim is qualitative ("peak performance is
	// reached when roughly 20% of the code is compiled"); we assert
	// the 20% point captures the strong majority of the full-CMO
	// benefit, leaving headroom for ±1-2% layout variance between
	// builds.
	if gain20 < 0.80*gain100 {
		t.Errorf("20%% capture only %.0f%% of full benefit (want >= 80%%)", 100*gain20/gain100)
	}
	// Optimizer work grows with selection: every selected site HLO
	// inlines copies its callee's IL into the caller. Counted, not
	// timed — the wall-clock growth across this region is a few tens
	// of percent of a sub-second build, too small to assert under
	// load; BuildNanos is still reported.
	for i := 1; i < len(points); i++ {
		if points[i].InlinedInstrs < points[i-1].InlinedInstrs {
			t.Errorf("inlined IL fell from %d to %d at %.0f%%",
				points[i-1].InlinedInstrs, points[i].InlinedInstrs, points[i].Percent)
		}
	}
	var at5Work, at100Work int
	for _, p := range points {
		if p.Percent == 5 {
			at5Work = p.InlinedInstrs
		}
		if p.Percent == 100 {
			at100Work = p.InlinedInstrs
		}
	}
	if at100Work <= at5Work {
		t.Errorf("inlined IL did not grow across the CMO region: 5%%=%d 100%%=%d", at5Work, at100Work)
	}
	t.Logf("\n%s", RenderFigure6(points))
}

func TestHistoryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := TableHistory(tiny())
	if err != nil {
		t.Fatalf("TableHistory: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 eras, got %d", len(rows))
	}
	if !(rows[0].BytesPerLine > rows[1].BytesPerLine && rows[1].BytesPerLine > rows[2].BytesPerLine) {
		t.Errorf("bytes/line not strictly falling across eras: %.1f %.1f %.1f",
			rows[0].BytesPerLine, rows[1].BytesPerLine, rows[2].BytesPerLine)
	}
	// The expanded-form figure should be in the paper's ~KB-per-line
	// regime (order of magnitude).
	if rows[0].BytesPerLine < 300 || rows[0].BytesPerLine > 20000 {
		t.Errorf("expanded bytes/line %.1f outside the plausible regime", rows[0].BytesPerLine)
	}
	t.Logf("\n%s", RenderHistory(rows))
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rs, err := Ablations(tiny())
	if err != nil {
		t.Fatalf("Ablations: %v", err)
	}
	byName := map[string]AblationResult{}
	for _, r := range rs {
		byName[r.Name] = r
	}
	if r := byName["swizzle-vs-rebuild"]; r.Factor < 2 {
		t.Errorf("decoding relocatable pools only %.2fx faster than rebuilding from source", r.Factor)
	}
	// The schedule ablation's effect depends on per-caller fanout; at
	// laptop scale it only needs to do no harm.
	if r := byName["inline-schedule-locality"]; r.Factor < 0.95 {
		t.Errorf("module-grouped schedule clearly worse than interleaved (%.2fx)", r.Factor)
	}
	if r := byName["expanded-pool-cache"]; r.Factor < 1.1 {
		t.Errorf("LRU pool cache saves too little: %.2fx fewer expansions", r.Factor)
	}
	if r := byName["naim-threshold-overhead"]; r.Value != 0 {
		t.Errorf("thresholded NAIM compacted %v pools on an in-memory compile", r.Value)
	}
	if r := byName["multi-layer-codegen"]; r.Factor < 1.05 {
		t.Errorf("multi-layer strategy saved too little codegen time: %.2fx", r.Factor)
	}
	t.Logf("\n%s", RenderAblations(rs))
}

func TestIPAAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rec, err := IPA(tiny())
	if err != nil {
		t.Fatalf("IPA: %v", err)
	}
	if len(rec.Points) != 3 {
		t.Fatalf("got %d points, want 3 (gcc-like, vortex-like, modeps)", len(rec.Points))
	}
	for _, pt := range rec.Points {
		// IPA() already fails hard on a result mismatch; re-check the
		// recorded bit so the JSON can be trusted standalone.
		if !pt.Identical {
			t.Errorf("%s: ablation changed the program result", pt.Program)
		}
		if pt.ReductionPct < -1 {
			t.Errorf("%s: ipa transforms made the program slower: %.2f%%", pt.Program, pt.ReductionPct)
		}
	}
	// The stressing program is the acceptance bar: every transform
	// fires and the cycles move.
	stress := rec.Points[len(rec.Points)-1]
	if stress.LoadsForwarded == 0 || stress.StoresKilled == 0 || stress.PureCSEs == 0 {
		t.Errorf("modeps did not exercise every transform: %+v", stress)
	}
	if rec.BestReductionPct < 5 {
		t.Errorf("best cycle reduction %.2f%% below the 5%% bar", rec.BestReductionPct)
	}
	t.Logf("\n%s", RenderIPA(rec))
}

func TestDistributedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rec, err := Distributed(tiny())
	if err != nil {
		t.Fatalf("Distributed: %v", err)
	}
	if !rec.Identical {
		t.Fatalf("some image differed across worker shapes:\n%s", RenderDistributed(rec))
	}
	if len(rec.Runs) < 4 {
		t.Fatalf("got %d runs, want the baseline plus local and remote shapes", len(rec.Runs))
	}
	var remotePartitions int
	for _, run := range rec.Runs {
		if len(run.Points) != 3 {
			t.Fatalf("%s: got %d points, want cold/warm-noop/warm-edit1", run.Config, len(run.Points))
		}
		for _, pt := range run.Points {
			if got := pt.PartitionsClean + pt.PartitionsLocal + pt.PartitionsRemote; got != pt.Partitions {
				t.Errorf("%s/%s: partition accounting %d != %d", run.Config, pt.Name, got, pt.Partitions)
			}
			remotePartitions += pt.PartitionsRemote
		}
		// The warm edit touches one function, so a partitioned warm
		// rebuild must replay at least one partition clean.
		edit := run.Points[2]
		if run.Partitions > 1 && edit.Partitions > 0 && edit.PartitionsClean == 0 {
			t.Errorf("%s: warm-edit1 replayed no partitions", run.Config)
		}
	}
	if remotePartitions == 0 {
		t.Errorf("no partition was served by a remote daemon across the sweep")
	}
	t.Logf("\n%s", RenderDistributed(rec))
}
