package main

import (
	"sort"

	"cmo/internal/obs"
)

// spanLedger is one traced build's raw ledger: self time and count per
// span name, and the trace's counters.
type spanLedger struct {
	SelfNanos map[string]int64 `json:"self_nanos"`
	Spans     map[string]int64 `json:"spans"`
	Counters  map[string]int64 `json:"counters"`
	// BuildNanos is the duration of the root "build" span.
	BuildNanos int64 `json:"build_nanos"`
}

func ledgerOf(tr *obs.Trace) *spanLedger {
	spans := tr.Spans()
	l := &spanLedger{
		SelfNanos: selfTimes(spans),
		Spans:     make(map[string]int64),
		Counters:  make(map[string]int64),
	}
	for _, s := range spans {
		l.Spans[s.Name]++
		if s.Name == "build" && s.Parent == 0 {
			l.BuildNanos += s.Dur
		}
	}
	for _, c := range tr.CounterSnapshot() {
		l.Counters[c.Name] = c.Value
	}
	return l
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the part of its interval that its direct children cover.
// Children that ran concurrently (Jobs > 1) cover their union once, so
// a parent's self time is never negative; the children's own times
// still add up across workers.
func selfTimes(spans []obs.SpanRecord) map[string]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[uint64][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.Start + s.Dur})
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		lo, hi := s.Start, s.Start+s.Dur
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].lo < ch[j].lo })
		var covered int64
		cur := lo // everything before cur is counted or outside
		for _, c := range ch {
			a, b := max(c.lo, cur), min(c.hi, hi)
			if b > a {
				covered += b - a
				cur = b
			}
		}
		out[s.Name] += s.Dur - covered
	}
	return out
}

// layerMetric is one per-layer figure of the traced run: a value per
// traced build, summed over a round (or its maximum, for peaks), with
// the round's median reported.
type layerMetric struct {
	name string
	unit string
	// of reads the figure from one traced build.
	of func(b *buildOutcome) float64
	// peak takes the round's maximum instead of its sum.
	peak bool
}

const mb = 1 << 20

// selfSeconds sums the self times of the named spans.
func selfSeconds(names ...string) func(b *buildOutcome) float64 {
	return func(b *buildOutcome) float64 {
		var n int64
		for _, name := range names {
			n += b.res.Ledger.SelfNanos[name]
		}
		return float64(n) / 1e9
	}
}

func counter(name string) func(b *buildOutcome) float64 {
	return func(b *buildOutcome) float64 { return float64(b.res.Ledger.Counters[name]) }
}

func stat(f func(b *buildOutcome) int64) func(b *buildOutcome) float64 {
	return func(b *buildOutcome) float64 { return float64(f(b)) }
}

// buildLayers are the per-layer metrics read from the build processes'
// traces and stats. The span names are the pipeline's own (see
// internal/obs users) plus the benchmark's spans around the session
// calls.
var buildLayers = []layerMetric{
	{name: "frontend.parse_s", unit: "s", of: selfSeconds("parse")},
	{name: "frontend.lower_s", unit: "s", of: selfSeconds("lower")},
	{name: "frontend.modules_lowered", unit: "count", of: func(b *buildOutcome) float64 { return float64(b.res.Ledger.Spans["parse"]) }},
	{name: "select.self_s", unit: "s", of: selfSeconds("select")},
	{name: "select.cmo_functions", unit: "count", of: stat(func(b *buildOutcome) int64 { return int64(b.res.Stats.CMOFunctions) })},
	{name: "select.sites_selected", unit: "count", of: stat(func(b *buildOutcome) int64 { return int64(b.res.Stats.SelectedSites) })},
	{name: "ipa.scan_s", unit: "s", of: selfSeconds("ipa scan")},
	{name: "ipa.propagate_s", unit: "s", of: selfSeconds("ipa propagate")},
	{name: "hlo.scan_s", unit: "s", of: selfSeconds("scan")},
	{name: "hlo.inline_s", unit: "s", of: selfSeconds("inline")},
	{name: "hlo.clone_s", unit: "s", of: selfSeconds("clone")},
	{name: "hlo.ipcp_s", unit: "s", of: selfSeconds("ipcp")},
	{name: "hlo.gforward_s", unit: "s", of: selfSeconds("gforward")},
	{name: "hlo.gdse_s", unit: "s", of: selfSeconds("gdse")},
	{name: "hlo.purecse_s", unit: "s", of: selfSeconds("purecse")},
	{name: "hlo.dce_s", unit: "s", of: selfSeconds("dce")},
	{name: "hlo.self_s", unit: "s", of: selfSeconds("hlo", "hlo module", "ipa")},
	{name: "hlo.inlines", unit: "count", of: stat(func(b *buildOutcome) int64 { return int64(b.res.Stats.HLO.Inlines) })},
	{name: "hlo.replay_hits", unit: "count", of: stat(func(b *buildOutcome) int64 { return int64(b.res.Stats.CacheHLOHits) })},
	{name: "hlo.replay_misses", unit: "count", of: stat(func(b *buildOutcome) int64 { return int64(b.res.Stats.CacheHLOMisses) })},
	{name: "llo.partition_s", unit: "s", of: selfSeconds("partition")},
	{name: "llo.codegen_s", unit: "s", of: selfSeconds("codegen")},
	{name: "llo.self_s", unit: "s", of: selfSeconds("llo", "llo warm")},
	{name: "llo.functions_compiled", unit: "count", of: func(b *buildOutcome) float64 { return float64(b.res.Ledger.Spans["codegen"]) }},
	{name: "llo.object_hits", unit: "count", of: stat(func(b *buildOutcome) int64 { return int64(b.res.Stats.CacheLLOHits) })},
	{name: "backend.partitions", unit: "count", of: stat(func(b *buildOutcome) int64 { return int64(b.res.Stats.Partitions) })},
	{name: "backend.partitions_clean", unit: "count", of: stat(func(b *buildOutcome) int64 { return int64(b.res.Stats.PartitionsClean) })},
	{name: "link.cluster_s", unit: "s", of: selfSeconds("cluster")},
	{name: "link.relocate_s", unit: "s", of: selfSeconds("relocate")},
	{name: "link.finalize_s", unit: "s", of: selfSeconds("finalize")},
	{name: "naim.compactions", unit: "count", of: counter("naim.compactions")},
	{name: "naim.expansions", unit: "count", of: counter("naim.expansions")},
	{name: "naim.disk_writes", unit: "count", of: counter("naim.disk_writes")},
	{name: "naim.disk_reads", unit: "count", of: counter("naim.disk_reads")},
	{name: "naim.compact_s", unit: "s", of: selfSeconds("naim compact", "naim symtab compact")},
	{name: "naim.disk_s", unit: "s", of: selfSeconds("naim disk write", "naim disk read")},
	{name: "naim.lock_wait_s", unit: "s", of: func(b *buildOutcome) float64 { return float64(b.res.Ledger.Counters["naim.lock_wait_ns"]) / 1e9 }},
	{name: "naim.modeled_peak_mb", unit: "MB", peak: true, of: func(b *buildOutcome) float64 { return float64(b.res.Stats.NAIM.PeakBytes) / mb }},
	{name: "session.open_s", unit: "s", of: selfSeconds("session open")},
	{name: "session.close_s", unit: "s", of: selfSeconds("cas drain", "session close")},
	{name: "build.self_s", unit: "s", of: selfSeconds("build")},
	{name: "graph.dirty_closure", unit: "count", of: counter("graph.dirty_closure")},
	{name: "graph.image_replays", unit: "count", of: counter("graph.image_replays")},
	{name: "session.frontend_hits", unit: "count", of: counter("session.frontend_hits")},
	{name: "cas.remote_hits", unit: "count", of: stat(func(b *buildOutcome) int64 { return int64(b.res.Stats.CacheRemoteHits) })},
	{name: "cas.remote_misses", unit: "count", of: stat(func(b *buildOutcome) int64 { return int64(b.res.Stats.CacheRemoteMisses) })},
	{name: "cas.store_drops", unit: "count", of: stat(func(b *buildOutcome) int64 { return b.res.Remote.StoreDrops })},
	{name: "runtime.gc_cpu_s", unit: "s", of: func(b *buildOutcome) float64 { return b.res.GCCPUSeconds }},
	{name: "runtime.gc_cycles", unit: "count", of: func(b *buildOutcome) float64 { return float64(b.res.GCCycles) }},
}

// proxyLayers are the CAS figures counted at the loopback proxy between
// the build processes and cmod, per round.
var proxyLayers = []struct {
	name, unit string
	of         func(p proxyStats) float64
}{
	{"cas.get_requests", "count", func(p proxyStats) float64 { return float64(p.Gets) }},
	{"cas.head_requests", "count", func(p proxyStats) float64 { return float64(p.Heads) }},
	{"cas.put_requests", "count", func(p proxyStats) float64 { return float64(p.Puts) }},
	{"cas.status_503", "count", func(p proxyStats) float64 { return float64(p.Status503) }},
	{"cas.request_s", "s", func(p proxyStats) float64 { return float64(p.RequestNanos) / 1e9 }},
	{"cas.fetched_mb", "MB", func(p proxyStats) float64 { return float64(p.BytesFetched) / mb }},
	{"cas.stored_mb", "MB", func(p proxyStats) float64 { return float64(p.BytesStored) / mb }},
}

// setupLayers are read from the benchmark's own spans around the
// public calls it makes during set-up.
var setupLayers = []struct{ name, span string }{
	{"profile.train_s", "train"},
	{"vpa.run_s", "vpa run"},
	{"lower.direct_s", "direct lower"},
}

// perLayer computes the traced run's per-layer metrics from its rounds.
func perLayer(rounds []roundOutcome, setup map[string]int64) map[string]metric {
	out := make(map[string]metric)
	for _, lm := range buildLayers {
		var per []float64
		for _, rd := range rounds {
			v, ok := 0.0, false
			for i := range rd.builds {
				b := &rd.builds[i]
				if b.err != nil || b.res.Ledger == nil {
					continue
				}
				x := lm.of(b)
				if lm.peak {
					v = max(v, x)
				} else {
					v += x
				}
				ok = true
			}
			if ok {
				per = append(per, v)
			}
		}
		out[lm.name] = metric{Value: median(per), Unit: lm.unit}
	}
	for _, pl := range proxyLayers {
		var per []float64
		for _, rd := range rounds {
			per = append(per, pl.of(rd.proxy))
		}
		out[pl.name] = metric{Value: median(per), Unit: pl.unit}
	}
	for _, sl := range setupLayers {
		out[sl.name] = metric{Value: float64(setup[sl.span]) / 1e9, Unit: "s"}
	}
	var traced []float64
	for _, rd := range rounds {
		for i := range rd.builds {
			if b := &rd.builds[i]; b.step.kind == stepScratch && b.err == nil {
				traced = append(traced, b.usage.wall.Seconds())
			}
		}
	}
	out["trace.build_s"] = metric{Value: median(traced), Unit: "s"}
	return out
}

// median of xs (0 for none; the caller's correctness flag already says
// the run failed).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
