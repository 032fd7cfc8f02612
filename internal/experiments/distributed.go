package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"

	cmo "cmo"
	"cmo/internal/serve"
	"cmo/internal/workload"
)

// The distributed-backend figure: the same program built cold, warm
// with no edit, and warm after a one-function edit, across backend
// configurations from one partition on one job to a two-daemon remote
// worker farm. The number that matters most is not a timing —
// it is the Identical column, which must be true at every point: the
// WHOPR-style backend split changes where partitions compile, never
// what they compile to.

// DistributedPoint is one build step under one backend
// configuration.
type DistributedPoint struct {
	// Name is "cold", "warm-noop", or "warm-edit1" (one cold function
	// in one module edited).
	Name       string `json:"name"`
	BuildNanos int64  `json:"build_nanos"`
	// Partition accounting for this build: total, replayed clean from
	// the repository, compiled by the local pool, compiled by remote
	// daemons, and remote failures retried locally.
	Partitions       int `json:"partitions"`
	PartitionsClean  int `json:"partitions_clean"`
	PartitionsLocal  int `json:"partitions_local"`
	PartitionsRemote int `json:"partitions_remote"`
	PartitionRetries int `json:"partition_retries"`
	// ImageReplay marks the whole-image replay path (warm-noop).
	ImageReplay bool `json:"image_replay"`
	// Identical records byte-identity against the baseline's (one
	// partition, one job) image for the same step. Any false value is a bug,
	// not a data point.
	Identical bool `json:"identical"`
}

// DistributedRun is one backend configuration's cold → warm-noop →
// warm-edit1 trajectory.
type DistributedRun struct {
	// Config names the backend shape, e.g. "local-j1-p1",
	// "local-j4-p4", "remote-2x-p8".
	Config string `json:"config"`
	// Jobs is the local pool size; Partitions the requested partition
	// count; RemoteWorkers the daemon count farmed to.
	Jobs          int                `json:"jobs"`
	Partitions    int                `json:"partitions"`
	RemoteWorkers int                `json:"remote_workers"`
	Points        []DistributedPoint `json:"points"`
}

// DistributedRecord is the BENCH_distributed.json payload.
type DistributedRecord struct {
	Benchmark string           `json:"benchmark"`
	Modules   int              `json:"modules"`
	Runs      []DistributedRun `json:"runs"`
	// Identical is the headline: true only when every point of every
	// run was byte-identical to the baseline.
	Identical bool `json:"identical"`
}

// distConfig describes one backend shape to sweep.
type distConfig struct {
	name       string
	jobs       int
	partitions int
	remotes    int
}

// Distributed measures the partitioned backend across worker shapes.
// Remote configurations run against real daemons: serve.Server
// instances listening on loopback, exactly what `cmod` wraps.
func Distributed(cfg Config) (*DistributedRecord, error) {
	p := SpecPrograms(cfg)[2] // the gcc-like program: the multi-module one
	spec := p.Spec
	spec.Modules = cfg.scale(16)
	mods := sources(spec)

	// One edit used by every configuration: the first statement of a
	// statically reachable cold function (the workload's cold spine
	// keeps it live, so the edit survives DCE and dirties a real
	// partition).
	edited := append([]cmo.SourceModule(nil), mods...)
	edited[1].Text = strings.Replace(edited[1].Text,
		"\tvar acc int = a + ", "\tvar acc int = 1 + a + ", 1)
	if edited[1].Text == mods[1].Text {
		return nil, fmt.Errorf("distributed: edit did not apply to the generated workload")
	}

	rec := &DistributedRecord{Benchmark: spec.Name, Modules: spec.Modules, Identical: true}
	configs := []distConfig{
		{name: "local-j1-p1", jobs: 1, partitions: 1},
		{name: "local-j1-p4", jobs: 1, partitions: 4},
		{name: "local-j4-p4", jobs: 4, partitions: 4},
		{name: "remote-1x-p4", jobs: 1, partitions: 4, remotes: 1},
		{name: "remote-2x-p8", jobs: 2, partitions: 8, remotes: 2},
	}

	// Baseline images per step, from the first (one partition, one
	// job) run.
	baseline := map[string]string{}
	for _, dc := range configs {
		run, err := distributedRun(cfg, dc, mods, edited, baseline)
		if err != nil {
			return nil, err
		}
		rec.Runs = append(rec.Runs, *run)
		for _, pt := range run.Points {
			if !pt.Identical {
				rec.Identical = false
			}
		}
	}
	return rec, nil
}

func distributedRun(cfg Config, dc distConfig, mods, edited []cmo.SourceModule, baseline map[string]string) (*DistributedRun, error) {
	dir, err := os.MkdirTemp("", "cmo-bench-dist-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var remoteURLs []string
	for i := 0; i < dc.remotes; i++ {
		url, stop, err := startWorkerDaemon()
		if err != nil {
			return nil, fmt.Errorf("distributed %s: worker daemon: %w", dc.name, err)
		}
		defer stop()
		remoteURLs = append(remoteURLs, url)
	}

	run := &DistributedRun{
		Config: dc.name, Jobs: dc.jobs,
		Partitions: dc.partitions, RemoteWorkers: dc.remotes,
	}
	step := func(name string, in []cmo.SourceModule) error {
		cfg.logf("distributed: %s, %s\n", dc.name, name)
		b, err := cmo.BuildSource(in, cmo.Options{
			Level:         cmo.O2,
			Volatile:      workload.InputGlobals(),
			Trace:         cfg.Trace,
			CacheDir:      dir,
			Jobs:          dc.jobs,
			Partitions:    dc.partitions,
			RemoteWorkers: remoteURLs,
		})
		if err != nil {
			return fmt.Errorf("distributed %s/%s: %w", dc.name, name, err)
		}
		dis := b.Image.Disasm()
		if _, ok := baseline[name]; !ok {
			baseline[name] = dis
		}
		run.Points = append(run.Points, DistributedPoint{
			Name:             name,
			BuildNanos:       b.Stats.TotalNanos,
			Partitions:       b.Stats.Partitions,
			PartitionsClean:  b.Stats.PartitionsClean,
			PartitionsLocal:  b.Stats.PartitionsLocal,
			PartitionsRemote: b.Stats.PartitionsRemote,
			PartitionRetries: b.Stats.PartitionRetries,
			ImageReplay:      b.Stats.GraphImageReplay,
			Identical:        dis == baseline[name],
		})
		return nil
	}
	if err := step("cold", mods); err != nil {
		return nil, err
	}
	if err := step("warm-noop", mods); err != nil {
		return nil, err
	}
	if err := step("warm-edit1", edited); err != nil {
		return nil, err
	}
	return run, nil
}

// startWorkerDaemon brings up a loopback daemon whose only job is
// serving POST /backend — the serve.Server cmod wraps, minus the
// fixed port.
func startWorkerDaemon() (url string, stop func(), err error) {
	srv := serve.New(serve.Config{MaxBuilds: 1, BackendSlots: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stop = func() {
		hs.Close()
		srv.Drain()
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// RenderDistributed formats the sweep as the report table.
func RenderDistributed(rec *DistributedRecord) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Distributed backend: %s, %d modules (O2, vs one partition on one job)\n",
		rec.Benchmark, rec.Modules)
	fmt.Fprintf(&sb, "%-13s  %-10s  %9s  %5s  %6s  %6s  %7s  %7s  %s\n",
		"config", "build", "build-ms", "parts", "clean", "local", "remote", "retries", "image")
	for _, run := range rec.Runs {
		for _, pt := range run.Points {
			img := "identical"
			switch {
			case !pt.Identical:
				img = "DIFFERS"
			case pt.ImageReplay:
				img = "replayed"
			}
			fmt.Fprintf(&sb, "%-13s  %-10s  %9.1f  %5d  %6d  %6d  %7d  %7d  %s\n",
				run.Config, pt.Name, float64(pt.BuildNanos)/1e6,
				pt.Partitions, pt.PartitionsClean, pt.PartitionsLocal,
				pt.PartitionsRemote, pt.PartitionRetries, img)
		}
	}
	verdict := "every image byte-identical across worker shapes"
	if !rec.Identical {
		verdict = "IMAGES DIFFER — the backend split is broken"
	}
	fmt.Fprintf(&sb, "headline: %s\n", verdict)
	return sb.String()
}

// WriteDistributedJSON writes the BENCH_distributed.json record.
func WriteDistributedJSON(w io.Writer, rec *DistributedRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}
