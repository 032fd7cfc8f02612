package cmo

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cmo/internal/backend"
	"cmo/internal/il"
	"cmo/internal/llo"
	"cmo/internal/lower"
	"cmo/internal/naim"
	"cmo/internal/obs"
	"cmo/internal/partition"
	"cmo/internal/vpa"
)

// The LLO stage's scheduler: the pipeline's WHOPR split. HLO is the
// summary-driven whole-program phase; everything after it is per
// routine, so the stage (1) extracts every surviving routine's tier,
// call edges and portable body hash on Jobs workers, pinning each body
// once, (2) groups routines into balanced callgraph-aware partitions
// (internal/partition) with a deterministic fingerprint each, (3)
// replays members that are clean against the session repository —
// warm builds only schedule dirty partitions — and (4) runs the dirty
// ones, critical-path first, on Jobs local workers plus one puller
// per remote cmod daemon (Options.RemoteWorkers).
//
// A local worker compiles the way the paper's per-routine LLO does:
// it checks each member's body out of the loader, runs llo.Compile
// and releases the pin, and the compiled routine goes straight into
// the code map. On a build that neither caches objects nor has remote
// workers every routine compiles locally, so extraction compiles it
// under the pin it already holds and each body is expanded once.
// Codecs sit only at the two seams that need bytes. When the build
// caches objects (a graph-scheduled session build), each compiled
// routine is encoded for the repository. When a partition
// goes to a remote daemon, its bodies are encoded under a short pin
// each, released before the network call, and the returned objects
// are decoded against this build's program. A remote failure of any
// kind retries the partition locally, so a flaky worker costs time,
// never the build.
//
// Byte identity holds by construction: llo.Compile is a pure function
// of (body, tier), the object codec is name-symbolic and exact, so a
// replayed, remote or local object is the same code, and both
// partitioning and fingerprints are pure functions of program content
// (never of Jobs, worker count, or measured times). Measured costs
// only order the dispatch queue.

// PartitionInfo describes one backend partition of a completed build:
// its deterministic fingerprint, its membership in canonical order,
// and how it was satisfied.
type PartitionInfo struct {
	Index int
	// FP is the deterministic partition fingerprint: toolchain ⊕
	// options fingerprint ⊕ partition count/index ⊕ every member's
	// name, tier, and post-HLO body hash.
	FP string
	// Funcs is the membership in canonical (module-major) order.
	Funcs []string
	// Clean marks a partition fully replayed from the repository.
	Clean bool
	// Worker names what executed a dirty partition: "local", a remote
	// address, or "local (fallback)" after a remote failure.
	Worker string
}

// lloMember is one surviving routine as extraction leaves it: no body,
// only what partitioning, fingerprints, cache keys and the compile
// need.
type lloMember struct {
	pid      il.PID
	name     string
	level    int
	pbo      bool
	tier     lloTierKind
	bodyHash naim.Key // naim.HashPortableFunc of the post-HLO body
	key      naim.Key // object cache key (caching builds only)
	size     int
	calls    []il.PID // callee of each call instruction, in body order

	// obj is the routine compiled under its extract pin (builds that
	// compile every routine locally).
	obj *vpa.Func
}

// backendUnit is one partition's dispatch state.
type backendUnit struct {
	idx     int
	fp      string
	members []*lloMember // canonical order

	// objs[i] is member i's compiled routine: replayed from the
	// repository, compiled by a local worker, or decoded from a remote
	// reply.
	objs []*vpa.Func
	// blobs[i] is member i's object encoding, kept only where bytes
	// exist anyway or are needed: a repository read, a remote reply,
	// or a local compile on a caching build.
	blobs [][]byte
	// dirty lists the members to compile (indexes into members).
	dirty []int
	// fromBundle marks a unit whose probe was satisfied by one bundle
	// read (no rewrite needed).
	fromBundle bool

	priority int64
}

// runLLO is the LLO stage (see the file comment): it compiles every
// function not in omit and returns the code map.
func (b *Build) runLLO(loader *naim.Loader, opt Options, sess *Session, omit map[il.PID]bool, lsp obs.Span) (map[il.PID]*vpa.Func, error) {
	prog := b.Prog
	gp := b.gp
	caching := gp != nil
	multiLayer := opt.MultiLayer && opt.Level >= O4 && opt.DB != nil
	optFP := hloOptionsFingerprint(opt)

	// Phase 1: extract (extractMembers). Tier counts, items and edge
	// weights are then folded in PID order, so they stay deterministic
	// at any job count.
	pids := make([]il.PID, 0, len(prog.FuncPIDs()))
	for _, pid := range prog.FuncPIDs() {
		if !omit[pid] {
			pids = append(pids, pid)
		}
	}
	eager := !caching && len(opt.RemoteWorkers) == 0
	extracted, err := b.extractMembers(loader, opt, pids, multiLayer, eager, lsp)
	if err != nil {
		return nil, err
	}
	members := make(map[string]*lloMember, len(pids))
	items := make([]partition.Item, 0, len(pids))
	type edgeKey struct{ a, b string }
	edgeW := make(map[edgeKey]int64)
	for _, m := range extracted {
		if caching {
			m.key = lloObjectKey(optFP, m.name, m.bodyHash, m.level, m.pbo)
		}
		b.countTier(m.tier)
		for _, callee := range m.calls {
			edgeW[edgeKey{m.name, prog.Sym(callee).Name}]++
		}
		m.calls = nil
		members[m.name] = m
		items = append(items, partition.Item{ID: m.name, Module: int(prog.Sym(m.pid).Module), Size: int64(m.size)})
	}
	if gp != nil {
		b.Stats.GraphFrontierDepth = len(pids)
	}
	code := make(map[il.PID]*vpa.Func, len(pids))
	if len(pids) == 0 {
		return code, nil
	}

	// Phase 2: partition. Edge aggregation is map-ordered, but
	// partition.Balanced sums edge weights order-insensitively, so the
	// assignment stays deterministic.
	edges := make([]partition.Edge, 0, len(edgeW))
	for k, w := range edgeW {
		edges = append(edges, partition.Edge{A: k.a, B: k.b, Weight: w})
	}
	npart := opt.Partitions
	if npart <= 0 {
		npart = partition.Auto(len(items))
	}
	parts := partition.Balanced(items, edges, npart)
	total := len(parts)
	scope := fmt.Sprintf("cmo/backend/v1|%s|%s|n=%d", toolchainVersion, optFP, total)

	units := make([]*backendUnit, total)
	b.Partitions = make([]PartitionInfo, total)
	for i, p := range parts {
		u := &backendUnit{idx: p.Index}
		ids := make([]backend.Member, len(p.Items))
		names := make([]string, len(p.Items))
		for j, it := range p.Items {
			m := members[it.ID]
			u.members = append(u.members, m)
			ids[j] = backend.Member{Name: m.name, Level: m.level, PBO: m.pbo, BodyHash: m.bodyHash}
			names[j] = m.name
		}
		u.fp = backend.Fingerprint(scope, p.Index, total, ids)
		u.objs = make([]*vpa.Func, len(u.members))
		u.blobs = make([][]byte, len(u.members))
		units[i] = u
		b.Partitions[i] = PartitionInfo{Index: p.Index, FP: u.fp, Funcs: names}
	}
	b.Stats.Partitions = total

	// Phase 3: probe and replay. Only graph-scheduled session builds
	// cache objects: one per routine, plus one bundle per partition
	// keyed by the partition fingerprint, so a fully clean partition
	// replays in a single repository read. Every cached member decodes
	// here, whether its partition is clean or dirty, so a dirty
	// partition compiles only its changed routines. A blob that fails
	// to decode demotes its member to dirty — reuse stays advisory,
	// never load-bearing.
	var dirtyUnits []*backendUnit
	for _, u := range units {
		if err := opt.ctxErr(); err != nil {
			return nil, err
		}
		if caching {
			if blob, ok := sess.get(partitionBundleKey(u.fp)); ok {
				if res, err := backend.DecodeResult(blob); err == nil && len(res.Objects) == len(u.members) {
					match := true
					for i := range res.Objects {
						if res.Objects[i].Name != u.members[i].name {
							match = false
							break
						}
					}
					if match {
						for i := range res.Objects {
							u.blobs[i] = res.Objects[i].Blob
						}
						u.fromBundle = true
					}
				}
			}
			for i, m := range u.members {
				if u.blobs[i] != nil {
					continue
				}
				if blob, ok := sess.get(m.key); ok {
					u.blobs[i] = blob
				}
			}
		}
		for i, m := range u.members {
			if u.blobs[i] == nil {
				u.dirty = append(u.dirty, i)
				continue
			}
			sp := lsp.ChildDetail("llo warm", m.name)
			dec, err := backend.DecodeObject(prog, u.blobs[i])
			sp.End()
			if err != nil || dec.Name != m.name {
				u.blobs[i] = nil
				u.fromBundle = false
				u.dirty = append(u.dirty, i)
				continue
			}
			u.objs[i] = dec
			gp.noteObject(m.name, m.key, 0, false)
			b.Stats.CacheLLOHits++
		}
		if len(u.dirty) == 0 {
			b.Stats.PartitionsClean++
			b.Partitions[u.idx].Clean = true
		} else {
			dirtyUnits = append(dirtyUnits, u)
		}
	}

	// Phase 4: dispatch the dirty partitions, heaviest dependency
	// chains first. Priorities come from the depgraph's measured costs
	// — scheduling only; membership and fingerprints never see them.
	if len(dirtyUnits) > 0 {
		var prio map[string]int64
		if gp != nil {
			prio = gp.priorities()
		}
		for _, u := range dirtyUnits {
			for _, m := range u.members {
				w := int64(m.size)
				if prio != nil {
					if p, ok := prio[graphObjID(m.name)]; ok && p > w {
						w = p
					}
				}
				if w > u.priority {
					u.priority = w
				}
			}
		}
		sort.SliceStable(dirtyUnits, func(i, j int) bool {
			if dirtyUnits[i].priority != dirtyUnits[j].priority {
				return dirtyUnits[i].priority > dirtyUnits[j].priority
			}
			return dirtyUnits[i].idx < dirtyUnits[j].idx
		})
		if err := b.dispatchPartitions(dirtyUnits, total, loader, opt, sess, lsp); err != nil {
			return nil, err
		}
		for _, u := range dirtyUnits {
			for _, di := range u.dirty {
				if lb := lloBytes(u.members[di].size); lb > b.Stats.LLOPeakBytes {
					b.Stats.LLOPeakBytes = lb
				}
			}
		}
	}
	for _, u := range units {
		for i, m := range u.members {
			code[m.pid] = u.objs[i]
		}
	}

	// Bundle writes: any partition whose probe was not a single bundle
	// read gets its bundle (re)written in canonical member order, so
	// the next warm-noop build replays each partition from one read.
	if caching {
		for _, u := range units {
			if u.fromBundle {
				continue
			}
			bundle := backend.Result{FP: u.fp, Objects: make([]backend.Object, len(u.members))}
			for i, m := range u.members {
				bundle.Objects[i] = backend.Object{Name: m.name, Blob: u.blobs[i]}
			}
			sess.put(partitionBundleKey(u.fp), backend.EncodeResult(&bundle))
		}
	}

	if tr := lsp.Trace(); tr != nil {
		tr.Counter("backend.partitions").Add(int64(b.Stats.Partitions))
		tr.Counter("backend.partitions_clean").Add(int64(b.Stats.PartitionsClean))
		tr.Counter("backend.partitions_local").Add(int64(b.Stats.PartitionsLocal))
		tr.Counter("backend.partitions_remote").Add(int64(b.Stats.PartitionsRemote))
		tr.Counter("backend.partition_retries").Add(int64(b.Stats.PartitionRetries))
		if b.Stats.CacheLLOHits+b.Stats.CacheLLOMisses > 0 {
			tr.Counter("session.llo_hits").Add(int64(b.Stats.CacheLLOHits))
			tr.Counter("session.llo_misses").Add(int64(b.Stats.CacheLLOMisses))
		}
	}
	return code, nil
}

// extractMembers checks each routine out once for reading, on Jobs
// workers, and records what partitioning, fingerprints and cache keys
// need. With eager set it also compiles the routine under that pin;
// a compile error fails the extraction. Members come back in pids
// order.
func (b *Build) extractMembers(loader *naim.Loader, opt Options, pids []il.PID, multiLayer, eager bool, lsp obs.Span) ([]*lloMember, error) {
	prog := b.Prog
	verify := b.lloVerifyHook(opt)
	out := make([]*lloMember, len(pids))
	var (
		mu       sync.Mutex
		firstErr error
		stop     atomic.Bool
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	extractOne := func(pid il.PID) (*lloMember, error) {
		f := loader.View(pid)
		if f == nil {
			return nil, fmt.Errorf("cmo: no body for %s", prog.Sym(pid).Name)
		}
		defer loader.DoneWith(pid)
		m := &lloMember{
			pid:      pid,
			name:     prog.Sym(pid).Name,
			bodyHash: naim.HashPortableFunc(prog, f),
			size:     f.NumInstrs(),
		}
		m.level, m.pbo, m.tier = b.lloTier(opt, multiLayer, pid, f)
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				if in := &blk.Instrs[i]; in.Op == il.Call {
					m.calls = append(m.calls, in.Sym)
				}
			}
		}
		if eager {
			mf, err := llo.Compile(prog, f, llo.Options{Level: m.level, PBO: m.pbo, Span: lsp, Verify: verify})
			if err != nil {
				return nil, err
			}
			m.obj = mf
		}
		return m, nil
	}
	for w := min(max(opt.Jobs, 1), len(pids)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(pids) {
					return
				}
				m, err := extractOne(pids[i])
				if err == nil {
					err = opt.ctxErr()
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
				out[i] = m
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// dispatchPartitions drains the priority-ordered dirty queue across
// Jobs local workers plus one puller per remote daemon. Only each
// unit's dirty members are compiled — replayed members already hold
// their objects. Workers fill the unit's object slots; per-member
// cache writes, graph costs, and partition counters are recorded under
// one mutex. Once any worker fails, the queue stops handing out units,
// and every body a worker checked out is released on every path, so a
// failing or cancelled build leaves no pin behind.
func (b *Build) dispatchPartitions(queue []*backendUnit, total int, loader *naim.Loader, opt Options, sess *Session, lsp obs.Span) error {
	prog := b.Prog
	gp := b.gp
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	verify := b.lloVerifyHook(opt)
	localWorkers := min(max(opt.Jobs, 1), len(queue))

	// Remote workers need the module shapes to rebuild a symbol table;
	// compute them once, outside the pullers.
	var shapes []lower.Shape
	if len(opt.RemoteWorkers) > 0 {
		shapes = lower.ShapesOf(prog)
	}

	var (
		mu       sync.Mutex
		firstErr error
		stop     atomic.Bool
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}

	// finish records one executed partition's objects and telemetry;
	// nanos holds each dirty member's measured compile time.
	finish := func(u *backendUnit, nanos []int64, worker string, remote, retried bool) {
		mu.Lock()
		defer mu.Unlock()
		if gp != nil {
			for i, di := range u.dirty {
				m := u.members[di]
				sess.put(m.key, u.blobs[di])
				gp.noteObject(m.name, m.key, nanos[i], true)
				b.Stats.CacheLLOMisses++
			}
		}
		if remote {
			b.Stats.PartitionsRemote++
		} else {
			b.Stats.PartitionsLocal++
		}
		if retried {
			b.Stats.PartitionRetries++
		}
		b.Partitions[u.idx].Worker = worker
	}

	// compileLocal compiles a unit's dirty members straight from the
	// loader: the pool's work, and the fallback for a failed remote
	// attempt. llo.Compile clones the body before transforming it, so
	// workers share the loader's bodies through read checkouts. A
	// member extraction already compiled only hands its object over.
	compileLocal := func(u *backendUnit, via string) ([]int64, error) {
		sp := lsp.ChildDetail("partition", fmt.Sprintf("p%d/%d via %s (%d fns)", u.idx, total, via, len(u.dirty)))
		defer sp.End()
		nanos := make([]int64, len(u.dirty))
		for i, di := range u.dirty {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			m := u.members[di]
			if m.obj != nil {
				u.objs[di] = m.obj
				continue
			}
			start := time.Now()
			f := loader.View(m.pid)
			if f == nil {
				return nil, fmt.Errorf("cmo: no body for %s", m.name)
			}
			mf, err := llo.Compile(prog, f, llo.Options{Level: m.level, PBO: m.pbo, Span: lsp, Verify: verify})
			loader.DoneWith(m.pid)
			if err != nil {
				return nil, err
			}
			nanos[i] = time.Since(start).Nanoseconds()
			u.objs[di] = mf
			if gp != nil {
				u.blobs[di] = backend.EncodeObject(prog, mf)
			}
		}
		return nanos, nil
	}

	// compileRemote ships a unit's dirty members to one daemon. Each
	// body is encoded under its own short pin, released before the
	// request goes out; a reply whose objects do not decode against
	// this build's program is a remote failure like any other.
	compileRemote := func(u *backendUnit, r *backend.Remote) ([]int64, error) {
		funcs := make([]backend.Func, len(u.dirty))
		for i, di := range u.dirty {
			m := u.members[di]
			f := loader.View(m.pid)
			if f == nil {
				return nil, fmt.Errorf("cmo: no body for %s", m.name)
			}
			funcs[i] = backend.Func{Name: m.name, Level: m.level, PBO: m.pbo, Body: naim.EncodePortableFunc(prog, f)}
			loader.DoneWith(m.pid)
		}
		req := &backend.Request{
			Toolchain: toolchainVersion,
			Shapes:    shapes,
			Part:      backend.Partition{Index: u.idx, Total: total, FP: u.fp, Funcs: funcs},
		}
		sp := lsp.ChildDetail("partition", fmt.Sprintf("p%d/%d via %s (%d fns)", u.idx, total, r.Name(), len(funcs)))
		res, err := r.Compile(ctx, req)
		sp.End()
		if err != nil {
			return nil, err
		}
		nanos := make([]int64, len(u.dirty))
		for i, di := range u.dirty {
			obj := &res.Objects[i]
			dec, err := backend.DecodeObject(prog, obj.Blob)
			if err != nil {
				return nil, fmt.Errorf("cmo: %s returned an undecodable object for %s: %w", r.Name(), obj.Name, err)
			}
			u.objs[di], u.blobs[di], nanos[i] = dec, obj.Blob, obj.Nanos
		}
		return nanos, nil
	}

	// runOn executes one unit: locally when r is nil, otherwise on the
	// remote daemon with the local compile as the fallback.
	runOn := func(u *backendUnit, r *backend.Remote) error {
		if r == nil {
			nanos, err := compileLocal(u, "local")
			if err != nil {
				return err
			}
			finish(u, nanos, "local", false, false)
			return nil
		}
		nanos, err := compileRemote(u, r)
		if err == nil {
			finish(u, nanos, r.Name(), true, false)
			return nil
		}
		// The retry/fallback contract: a dead, slow, or lying remote
		// worker demotes the partition to local execution. Only a
		// local failure (a real compile error, or the build's own
		// cancellation) fails the build.
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		lsp.Event("partition retry")
		if nanos, err = compileLocal(u, "local fallback"); err != nil {
			return err
		}
		finish(u, nanos, "local (fallback)", false, true)
		return nil
	}

	pull := func(r *backend.Remote) {
		defer wg.Done()
		for {
			if stop.Load() {
				return
			}
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			i := int(next.Add(1)) - 1
			if i >= len(queue) {
				return
			}
			if err := runOn(queue[i], r); err != nil {
				fail(err)
				return
			}
		}
	}

	for w := 0; w < localWorkers; w++ {
		wg.Add(1)
		go pull(nil)
	}
	if len(opt.RemoteWorkers) > 0 {
		client := &http.Client{}
		timeout := opt.RemoteTimeout
		if timeout <= 0 {
			timeout = backend.DefaultTimeout
		}
		for _, addr := range opt.RemoteWorkers {
			wg.Add(1)
			go pull(&backend.Remote{Addr: addr, Client: client, Timeout: timeout})
		}
	}
	wg.Wait()
	return firstErr
}
