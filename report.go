package cmo

import (
	"fmt"
	"sort"
	"strings"
)

// SelectionReport renders what the build decided to optimize and why —
// the deployment diagnostic the paper calls essential when shipping
// selectivity (section 6.2: "good compiler diagnostics on what the
// compiler is optimizing are essential"). It is stable text, suitable
// for diffing between builds.
func (b *Build) SelectionReport() string {
	var sb strings.Builder
	s := b.Stats
	fmt.Fprintf(&sb, "build: %v", s.Level)
	if s.PBO {
		sb.WriteString(" +P")
	}
	fmt.Fprintf(&sb, " — %d modules, %d functions, %d lines\n", s.Modules, s.Functions, s.TotalLines)

	if s.TotalSites > 0 {
		fmt.Fprintf(&sb, "selectivity: %d/%d call sites -> %d/%d modules in CMO, %d routines in the fine-grained set (%d lines)\n",
			s.SelectedSites, s.TotalSites, s.CMOModules, s.Modules, s.CMOFunctions, s.SelectedLines)
	} else if s.CMOModules > 0 {
		fmt.Fprintf(&sb, "selectivity: disabled — all %d modules in CMO\n", s.CMOModules)
	} else if s.Level >= O3 {
		sb.WriteString("selectivity: nothing selected; default-level compilation throughout\n")
	}

	h := s.HLO
	fmt.Fprintf(&sb, "hlo: %d inlines (%d cross-module), %d clones, %d IPCP params, %d const globals, %d unrolled fns, %d dead fns\n",
		h.Inlines, h.CrossModule, h.Clones, h.IPCPParams, h.ConstGlobals, h.Unrolled, h.DeadFuncs)
	if h.GLoadsForwarded+h.GStoresKilled+h.PureCSEs > 0 {
		fmt.Fprintf(&sb, "ipa: %d global loads forwarded, %d dead global stores, %d const/pure calls reused\n",
			h.GLoadsForwarded, h.GStoresKilled, h.PureCSEs)
	}

	if s.TierHot+s.TierWarm+s.TierCold > 0 {
		fmt.Fprintf(&sb, "layers: %d hot (CMO+PBO), %d warm (+O2), %d cold (+O1)\n",
			s.TierHot, s.TierWarm, s.TierCold)
	}

	fmt.Fprintf(&sb, "naim: level %v, peak %d bytes, %d compactions, %d expansions, %d disk writes\n",
		s.NAIMLevel, s.NAIM.PeakBytes, s.NAIM.Compactions, s.NAIM.Expansions, s.NAIM.DiskWrites)
	fmt.Fprintf(&sb, "naim cache: %d hits, %d misses, %d evictions\n",
		s.NAIM.CacheHits, s.NAIM.CacheMisses, s.NAIM.Evictions)
	fmt.Fprintf(&sb, "image: %d bytes of code, %d functions\n", s.CodeBytes, len(b.Image.Funcs))

	if len(b.InlineOps) > 0 {
		// The busiest inline pairs, aggregated — the trail a
		// performance analyst follows first.
		type pair struct{ caller, callee string }
		agg := map[pair]int{}
		for _, op := range b.InlineOps {
			agg[pair{b.Prog.Sym(op.Caller).Name, b.Prog.Sym(op.Callee).Name}]++
		}
		pairs := make([]pair, 0, len(agg))
		for k := range agg {
			pairs = append(pairs, k)
		}
		sort.Slice(pairs, func(i, j int) bool {
			if agg[pairs[i]] != agg[pairs[j]] {
				return agg[pairs[i]] > agg[pairs[j]]
			}
			if pairs[i].caller != pairs[j].caller {
				return pairs[i].caller < pairs[j].caller
			}
			return pairs[i].callee < pairs[j].callee
		})
		sb.WriteString("top inlines:\n")
		for i, p := range pairs {
			if i >= 10 {
				fmt.Fprintf(&sb, "  ... and %d more pairs\n", len(pairs)-10)
				break
			}
			fmt.Fprintf(&sb, "  %3dx %s <- %s\n", agg[p], p.caller, p.callee)
		}
	}
	return sb.String()
}

// TimingReport renders where the build spent its time — the sibling of
// SelectionReport for the paper's Figure 4-6 measurement axis: phase
// wall-clock durations (span-derived, so they are guaranteed to nest
// inside the total), the NAIM loader's compaction/disk overhead, and —
// when the build recorded a trace — the stable phase tree. Durations
// vary run to run; the phase tree does not.
func (b *Build) TimingReport() string {
	var sb strings.Builder
	s := b.Stats
	pct := func(ns int64) float64 {
		if s.TotalNanos <= 0 {
			return 0
		}
		return 100 * float64(ns) / float64(s.TotalNanos)
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Fprintf(&sb, "timing: %v build, total %.2f ms\n", s.Level, ms(s.TotalNanos))
	// Queue wait is server-side latency before the build began; it is
	// deliberately outside TotalNanos so the phase percentages below
	// still describe the build itself, not the daemon's load.
	if s.QueueNanos > 0 {
		fmt.Fprintf(&sb, "  %-9s %9.2f ms  (before build; not in total)\n", "queued", ms(s.QueueNanos))
	}
	phases := []struct {
		name string
		ns   int64
	}{
		{"frontend", s.FrontendNanos},
		{"hlo", s.HLONanos},
		{"llo", s.LLONanos},
		{"link", s.LinkNanos},
	}
	var accounted int64
	for _, p := range phases {
		if p.ns == 0 {
			continue
		}
		accounted += p.ns
		fmt.Fprintf(&sb, "  %-9s %9.2f ms  %5.1f%%\n", p.name, ms(p.ns), pct(p.ns))
	}
	if other := s.TotalNanos - accounted; other > 0 {
		fmt.Fprintf(&sb, "  %-9s %9.2f ms  %5.1f%%\n", "(other)", ms(other), pct(other))
	}
	// The select stage nests inside hlo, so like verify below it is an
	// informational line rather than a phase (adding it to the loop
	// above would double-count its time).
	if s.SelectNanos > 0 {
		fmt.Fprintf(&sb, "select: %.2f ms inside hlo\n", ms(s.SelectNanos))
	}
	// The ipa summary stage also nests inside hlo.
	if s.IPANanos > 0 {
		fmt.Fprintf(&sb, "ipa: %.2f ms inside hlo\n", ms(s.IPANanos))
	}
	// Verification nests inside the phases above (per-transform checks
	// run under hlo, the frontend/link checks under build), so it is
	// reported as an informational line, not a phase of its own.
	if s.VerifyNanos > 0 {
		fmt.Fprintf(&sb, "verify: %.2f ms across whole-program passes, %d diagnostics\n",
			ms(s.VerifyNanos), s.VerifyDiags)
	}
	fmt.Fprintf(&sb, "naim: compact %.2f ms, disk %.2f ms — %d compactions (%d evictions), %d expansions, %d disk writes, %d disk reads\n",
		ms(s.NAIM.CompactNanos), ms(s.NAIM.DiskNanos),
		s.NAIM.Compactions, s.NAIM.Evictions, s.NAIM.Expansions, s.NAIM.DiskWrites, s.NAIM.DiskReads)
	fmt.Fprintf(&sb, "naim cache: %d hits, %d misses", s.NAIM.CacheHits, s.NAIM.CacheMisses)
	if tot := s.NAIM.CacheHits + s.NAIM.CacheMisses; tot > 0 {
		fmt.Fprintf(&sb, " (%.1f%% hit rate)", 100*float64(s.NAIM.CacheHits)/float64(tot))
	}
	sb.WriteString("\n")
	// Session cache figures only appear on builds with a cache
	// directory — cache-less builds keep these lines out, so older
	// report-shape expectations still hold.
	if s.CacheFrontendHits+s.CacheFrontendMisses > 0 {
		fmt.Fprintf(&sb, "session frontend: %d replayed, %d lowered (%.1f%% warm)\n",
			s.CacheFrontendHits, s.CacheFrontendMisses,
			100*float64(s.CacheFrontendHits)/float64(s.CacheFrontendHits+s.CacheFrontendMisses))
	}
	if s.CacheHLOHits+s.CacheHLOMisses > 0 {
		fmt.Fprintf(&sb, "session hlo: %d replayed, %d optimized (%.1f%% warm)\n",
			s.CacheHLOHits, s.CacheHLOMisses,
			100*float64(s.CacheHLOHits)/float64(s.CacheHLOHits+s.CacheHLOMisses))
	}
	if s.CacheLLOHits+s.CacheLLOMisses > 0 {
		fmt.Fprintf(&sb, "session llo: %d replayed, %d compiled (%.1f%% warm)\n",
			s.CacheLLOHits, s.CacheLLOMisses,
			100*float64(s.CacheLLOHits)/float64(s.CacheLLOHits+s.CacheLLOMisses))
	}
	// The remote-cache line appears only on builds that actually
	// talked to a shared CAS (Options.RemoteCache); an idle or absent
	// remote keeps the report shape unchanged.
	if s.CacheRemoteHits+s.CacheRemoteMisses+s.CacheRemoteStores > 0 {
		fmt.Fprintf(&sb, "remote cache: %d filled, %d missed, %d stored",
			s.CacheRemoteHits, s.CacheRemoteMisses, s.CacheRemoteStores)
		if s.CacheRemoteDrops > 0 {
			fmt.Fprintf(&sb, ", %d dropped", s.CacheRemoteDrops)
		}
		if s.CacheRemoteShed > 0 {
			fmt.Fprintf(&sb, ", %d shed (service at capacity)", s.CacheRemoteShed)
		}
		if s.CacheRemoteErrors > 0 {
			fmt.Fprintf(&sb, ", %d errors (degraded to local)", s.CacheRemoteErrors)
		}
		sb.WriteString("\n")
	}
	// Partition figures appear on every build that ran the LLO stage.
	if s.Partitions > 0 {
		fmt.Fprintf(&sb, "partitions: %d total, %d clean, %d local, %d remote",
			s.Partitions, s.PartitionsClean, s.PartitionsLocal, s.PartitionsRemote)
		if s.PartitionRetries > 0 {
			fmt.Fprintf(&sb, ", %d retried locally", s.PartitionRetries)
		}
		sb.WriteString("\n")
	}
	// Graph lines appear whenever the dependency graph steered the
	// build — a full image replay, or a staged build with a loaded
	// graph (nodes > 0 even when the closure was empty).
	if s.GraphImageReplay {
		fmt.Fprintf(&sb, "graph: image replayed — %d nodes, %d edges, dirty closure 0\n",
			s.GraphNodes, s.GraphEdges)
	} else if s.GraphNodes > 0 {
		fmt.Fprintf(&sb, "graph: %d nodes, %d edges, dirty closure %d, frontier %d, critical path %.2f ms\n",
			s.GraphNodes, s.GraphEdges, s.GraphDirtyClosure, s.GraphFrontierDepth,
			ms(s.GraphCriticalPathNanos))
	}
	if s.PinLeaks > 0 {
		fmt.Fprintf(&sb, "naim pin leaks: %d pools still checked out\n", s.PinLeaks)
	}
	// Contention figures only appear under Jobs > 1 (or disk offload):
	// an uncontended single-threaded build keeps this line out.
	if s.NAIM.LockWaitNanos > 0 || s.NAIM.WritebackQueued > 0 {
		fmt.Fprintf(&sb, "naim contention: %.2f ms shard-lock wait, %d spills queued (peak queue %d, %d group commits)\n",
			ms(s.NAIM.LockWaitNanos), s.NAIM.WritebackQueued, s.NAIM.WritebackPeakQueue,
			s.NAIM.WritebackBatches)
	}
	if b.trace != nil {
		if tree := b.trace.PhaseTree(); tree != "" {
			sb.WriteString("phases:\n")
			for _, line := range strings.Split(strings.TrimRight(tree, "\n"), "\n") {
				sb.WriteString("  ")
				sb.WriteString(line)
				sb.WriteString("\n")
			}
		}
	}
	return sb.String()
}
