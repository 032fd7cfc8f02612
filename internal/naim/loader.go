package naim

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cmo/internal/il"
	"cmo/internal/obs"
)

// Level identifies how much NAIM machinery is currently engaged
// (paper section 4.3: thresholds turn on more and more functionality
// as the process grows).
type Level int

// NAIM levels.
const (
	// LevelOff keeps every pool expanded (NAIM off — small programs
	// pay nothing).
	LevelOff Level = iota
	// LevelIR compacts routine IR pools evicted from the expanded-
	// pool cache.
	LevelIR
	// LevelST additionally compacts module symbol tables.
	LevelST
	// LevelDisk additionally offloads compacted pools to the on-disk
	// repository.
	LevelDisk
)

func (l Level) String() string {
	switch l {
	case LevelOff:
		return "off"
	case LevelIR:
		return "ir-compaction"
	case LevelST:
		return "ir+st-compaction"
	case LevelDisk:
		return "ir+st+disk"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Config tunes the loader.
type Config struct {
	// BudgetBytes is the optimizer memory budget; adaptive level
	// thresholds derive from it. 0 means unlimited (NAIM stays off
	// unless ForceLevel pins it on).
	BudgetBytes int64
	// ForceLevel pins the NAIM level (-1 = adaptive). Figure 5 uses
	// pinned levels to measure each configuration separately.
	ForceLevel Level
	// CacheSlots bounds the expanded-pool cache once compaction is
	// engaged (0 selects the default of 48). The bound is global
	// across shards; checked-out pools may transiently overflow it.
	CacheSlots int
	// Dir is where the disk repository lives ("" = system temp).
	Dir string
	// Shards is the number of independently locked shards the
	// expanded-pool table is split across (0 selects the default of
	// 16; values are rounded up to a power of two). More shards mean
	// less lock contention between Jobs > 1 clients.
	Shards int
	// WritebackDepth bounds the async spill-writeback queue (0
	// selects the default of 32). Evictions that spill to disk only
	// block once this many writes are in flight.
	WritebackDepth int
	// Repo, when non-nil, is an externally owned repository the loader
	// spills into instead of creating an ephemeral one. A Session with
	// a durable cache directory injects its store here so spilled
	// relocatable pools live beside the cached build artifacts; the
	// loader never closes an injected repository.
	Repo *Repository
	// Done, when non-nil, unblocks the loader's wait paths on build
	// cancellation: a client stalled on a full writeback queue stops
	// waiting when the channel closes, and the spill it was holding is
	// reverted to plain compacted (blob resident, accounting intact)
	// instead of being written. Loader state stays fully consistent —
	// only the disk write is skipped.
	Done <-chan struct{}
}

// Adaptive is the ForceLevel value meaning "let thresholds decide".
const Adaptive Level = -1

// Stats are cumulative loader counters. CurBytes, PeakBytes, and the
// structural counters (Installs, Compactions, Expansions, disk
// traffic) are deterministic for a fixed operation sequence; under
// concurrent clients (Jobs > 1) the cache hit/miss/eviction split,
// LockWaitNanos, and the writeback queue figures depend on goroutine
// interleaving and may vary run to run.
type Stats struct {
	CurBytes  int64 // modeled optimizer occupancy right now
	PeakBytes int64 // high-water mark of CurBytes

	Installs    int64
	CacheHits   int64 // Function() served from an expanded pool
	CacheMisses int64 // Function() had to expand (or read back) a pool
	Evictions   int64 // expanded routine pools compacted out of the cache
	Compactions int64
	Expansions  int64
	DiskWrites  int64 // records the repository appended (duplicate content is not a write)
	DiskReads   int64

	CompactNanos int64 // time spent compacting + uncompacting
	DiskNanos    int64 // time spent on repository I/O

	// LockWaitNanos is the total time clients spent waiting to
	// acquire a contended shard lock (0 when uncontended: the fast
	// path never reads the clock). Per-shard detail is available via
	// Loader.ShardLockWaits.
	LockWaitNanos int64
	// WritebackQueued counts spill jobs handed to the async
	// writeback goroutine.
	WritebackQueued int64
	// WritebackPeakQueue is the high-water depth of the writeback
	// queue — how far disk writes fell behind eviction.
	WritebackPeakQueue int64
	// WritebackBatches counts group-committed repository appends; the
	// ratio WritebackQueued / WritebackBatches is the average batch size
	// the writer achieved (1.0 = no grouping ever paid off).
	WritebackBatches int64
}

type status uint8

const (
	stExpanded status = iota
	stCompacted
	stSpilling // compacted, disk write in flight (blob still resident)
	stOffloaded
)

// handle is one routine pool. While expanded, a clean pool (one no
// write checkout has touched since it was expanded) keeps the
// compacted form it came from — its repository key when it was read
// back from disk, otherwise its blob — so evicting it just drops the
// expanded form. A dirty pool has no compacted form: eviction encodes
// it afresh.
type handle struct {
	pid     il.PID
	st      status
	gen     uint64 // spill generation; a landing write must match it
	fn      *il.Function
	blob    []byte
	key     Key  // repository content key of the pool's current content
	hasKey  bool // key is valid: the content is stored in the repository
	dirty   bool // fn was written since it was expanded (or installed)
	bytes   int64
	pending bool
	pins    int           // clients holding the body via Function or View
	elem    *list.Element // position in the shard's expanded-pool LRU
}

// shard is one independently locked slice of the expanded-pool table:
// a PID-hashed handle map plus its own LRU of expanded pools.
type shard struct {
	mu       sync.Mutex
	handles  map[il.PID]*handle
	lru      *list.List // of *handle, front = coldest
	lockWait atomic.Int64
}

// Loader is the NAIM loader: "the process that manages the movement
// of data in and out of the repository" (section 4.2). It owns every
// transitory pool — routine IR handed over via InstallFunc and the
// per-module symbol tables of the program — and serves them back
// through Function/ModuleDefs while keeping modeled memory inside the
// configured budget.
//
// Loader implements hlo.FuncSource and is safe for concurrent use:
// the expanded-pool table and LRU are sharded by PID with a per-shard
// mutex, budget accounting and Stats are atomic, and repository spill
// writes ride a bounded async writeback goroutine. A body returned by
// Function is pinned (a per-handle pin count, so several clients may
// hold the same body) and is never evicted until every holder has
// called DoneWith. SetTraceScope and Close are phase-boundary calls:
// they must not race with Function/DoneWith from other goroutines.
type Loader struct {
	prog *il.Program
	cfg  Config

	shards    []shard
	shardMask uint32

	levelA      atomic.Int32
	curBytes    atomic.Int64
	peakBytes   atomic.Int64
	expanded    atomic.Int64 // pools currently resident in an LRU
	evictCursor uint32       // round-robin eviction start shard (monotonic)
	evictMu     sync.Mutex   // serializes victim selection, not shard access
	genSeq      atomic.Uint64

	globalBytes int64

	modMu       sync.Mutex
	modExpanded []bool
	modBlobs    [][]byte
	modBytes    []int64
	arena       *Arena

	repoMu sync.Mutex
	repo   *Repository

	wb writeback

	stats statCells

	// scope is the trace span loader activity nests under; the driver
	// repoints it as pipeline phases change (compactions triggered
	// during HLO render inside the HLO span, and so on). The zero Span
	// disables recording; duration accounting still works through it.
	scopeMu sync.RWMutex
	scope   obs.Span
	// ctr pointers are registered on the first SetTraceScope call,
	// which the pipeline makes before any concurrent loader activity;
	// they are immutable afterwards (Counter.Add is atomic).
	ctr struct {
		hits, misses, evictions         *obs.Counter
		compactions, expansions         *obs.Counter
		diskWrites, diskReads, installs *obs.Counter
		lockWait, wbQueued, wbPeak      *obs.Counter
		wbBatches                       *obs.Counter
	}
}

// statCells is the atomic backing store for the Stats snapshot.
type statCells struct {
	installs, hits, misses, evictions   atomic.Int64
	compactions, expansions             atomic.Int64
	diskWrites, diskReads               atomic.Int64
	compactNanos, diskNanos             atomic.Int64
	writebackQueued, writebackPeakQueue atomic.Int64
	writebackBatches                    atomic.Int64
}

// NewLoader wraps a program's transitory objects in a loader.
func NewLoader(prog *il.Program, cfg Config) *Loader {
	if cfg.CacheSlots <= 0 {
		cfg.CacheSlots = 48
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	nshards := 1
	for nshards < cfg.Shards {
		nshards <<= 1
	}
	if cfg.WritebackDepth <= 0 {
		cfg.WritebackDepth = 32
	}
	l := &Loader{
		prog:        prog,
		cfg:         cfg,
		shards:      make([]shard, nshards),
		shardMask:   uint32(nshards - 1),
		globalBytes: GlobalBytes(prog),
		modExpanded: make([]bool, len(prog.Modules)),
		modBlobs:    make([][]byte, len(prog.Modules)),
		modBytes:    make([]int64, len(prog.Modules)),
		arena:       NewArena(0),
	}
	for i := range l.shards {
		l.shards[i].handles = make(map[il.PID]*handle)
		l.shards[i].lru = list.New()
	}
	if cfg.ForceLevel >= LevelOff {
		l.levelA.Store(int32(cfg.ForceLevel))
	}
	n := l.globalBytes
	for i, m := range prog.Modules {
		l.modExpanded[i] = true
		l.modBytes[i] = ExpandedModuleBytes(m)
		n += l.modBytes[i]
	}
	l.curBytes.Store(n)
	l.peakBytes.Store(n)
	l.startWriteback()
	return l
}

// shardFor maps a PID to its shard.
func (l *Loader) shardFor(pid il.PID) *shard {
	return &l.shards[uint32(pid)&l.shardMask]
}

// lockShard acquires a shard's mutex, charging any wait to the
// contention counters. The uncontended path costs one TryLock and no
// clock read.
func (l *Loader) lockShard(s *shard) {
	if s.mu.TryLock() {
		return
	}
	t0 := time.Now()
	s.mu.Lock()
	d := time.Since(t0).Nanoseconds()
	s.lockWait.Add(d)
	l.ctr.lockWait.Add(d)
}

// adjust applies a delta to CurBytes, ratcheting PeakBytes.
func (l *Loader) adjust(delta int64) {
	cur := l.curBytes.Add(delta)
	for {
		peak := l.peakBytes.Load()
		if cur <= peak || l.peakBytes.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// SetTraceScope points loader trace emission at a pipeline span: the
// compact/expand/disk spans it records nest under s, and the cache
// counters register on s's trace. The zero Span disables emission.
// Call again whenever the enclosing pipeline phase changes — but only
// from the pipeline goroutine, between concurrent phases: the first
// call registers the counters and must precede any parallel loader
// use.
func (l *Loader) SetTraceScope(s obs.Span) {
	l.scopeMu.Lock()
	l.scope = s
	l.scopeMu.Unlock()
	if tr := s.Trace(); tr != nil && l.ctr.hits == nil {
		l.ctr.hits = tr.Counter("naim.cache_hits")
		l.ctr.misses = tr.Counter("naim.cache_misses")
		l.ctr.evictions = tr.Counter("naim.evictions")
		l.ctr.compactions = tr.Counter("naim.compactions")
		l.ctr.expansions = tr.Counter("naim.expansions")
		l.ctr.diskWrites = tr.Counter("naim.disk_writes")
		l.ctr.diskReads = tr.Counter("naim.disk_reads")
		l.ctr.installs = tr.Counter("naim.installs")
		l.ctr.lockWait = tr.Counter("naim.lock_wait_ns")
		l.ctr.wbQueued = tr.Counter("naim.writeback_queued")
		l.ctr.wbPeak = tr.Counter("naim.writeback_peak_queue")
		l.ctr.wbBatches = tr.Counter("naim.writeback_batches")
	}
}

// getScope snapshots the current trace scope.
func (l *Loader) getScope() obs.Span {
	l.scopeMu.RLock()
	s := l.scope
	l.scopeMu.RUnlock()
	return s
}

// symName is a trace-only helper (guarded by scope.Enabled at call
// sites so the hot path never touches the symbol table for it).
func (l *Loader) symName(pid il.PID) string { return l.prog.Sym(pid).Name }

// InstallFunc hands a freshly lowered (or otherwise constructed)
// routine body to the loader. The pool starts dirty: it has no
// compacted form yet. Installing over an existing pool replaces it
// outright, dropping whatever compacted form the old body had.
func (l *Loader) InstallFunc(f *il.Function) {
	h := &handle{pid: f.PID, st: stExpanded, fn: f, dirty: true, bytes: ExpandedFuncBytes(f)}
	s := l.shardFor(f.PID)
	l.lockShard(s)
	if old, ok := s.handles[f.PID]; ok {
		l.adjust(-old.bytes)
		if old.elem != nil {
			s.lru.Remove(old.elem)
			l.expanded.Add(-1)
		}
	}
	s.handles[f.PID] = h
	h.elem = s.lru.PushBack(h)
	l.expanded.Add(1)
	l.stats.installs.Add(1)
	l.ctr.installs.Add(1)
	l.adjust(h.bytes)
	s.mu.Unlock()
	l.enforce()
}

// Function checks out the expanded body for pid for writing,
// loading it from its compacted or offloaded form if necessary. It
// returns nil for uninstalled PIDs. The body may be mutated in place;
// the loader re-measures it on the next touch, and the checkout marks
// the pool dirty, so its next eviction encodes it afresh. The body is
// pinned (its pin count is raised): it will not be evicted — even
// under cache or budget pressure — until a matching DoneWith drops the
// last pin, so any number of clients may hold any number of bodies at
// once without the loader invalidating one behind a client's back.
// Checked-out pools may transiently overflow the cache bound; the
// overflow is reclaimed as pins drop.
func (l *Loader) Function(pid il.PID) *il.Function { return l.checkout(pid, true) }

// View checks out the expanded body for pid for reading only. It pins
// exactly like Function, but leaves the pool clean: evicting a pool
// that only views touched since its last expansion drops the expanded
// form without re-encoding or re-spilling it. A View holder must not
// change the body — or, if it does after all, must call MarkDirty
// before its DoneWith.
func (l *Loader) View(pid il.PID) *il.Function { return l.checkout(pid, false) }

// MarkDirty records that the holder of a View checkout changed the
// body, so its next eviction encodes it. It must be called while the
// caller still holds the pin.
func (l *Loader) MarkDirty(pid il.PID) {
	s := l.shardFor(pid)
	l.lockShard(s)
	if h, ok := s.handles[pid]; ok && h.st == stExpanded {
		l.markDirty(h)
	}
	s.mu.Unlock()
}

// markDirty drops an expanded pool's compacted form, which no longer
// matches the body. Caller holds the handle's shard lock.
func (l *Loader) markDirty(h *handle) {
	h.dirty = true
	h.hasKey = false
	if h.blob != nil {
		l.adjust(-int64(len(h.blob)))
		h.bytes -= int64(len(h.blob))
		h.blob = nil
	}
}

// checkout pins pid's body, expanding it if necessary; write marks
// the pool dirty.
func (l *Loader) checkout(pid il.PID, write bool) *il.Function {
	s := l.shardFor(pid)
	l.lockShard(s)
	h, ok := s.handles[pid]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	switch h.st {
	case stExpanded:
		l.stats.hits.Add(1)
		l.ctr.hits.Add(1)
		l.remeasure(h)
		s.lru.MoveToBack(h.elem)
	case stCompacted, stSpilling:
		// A spilling pool still holds its blob; re-expanding from it
		// orphans the in-flight write (the generation check in
		// landSpill drops the landing).
		l.stats.misses.Add(1)
		l.ctr.misses.Add(1)
		l.expand(h)
	case stOffloaded:
		l.stats.misses.Add(1)
		l.ctr.misses.Add(1)
		scope := l.getScope()
		var detail string
		if scope.Enabled() {
			detail = l.symName(pid)
		}
		sp := scope.ChildDetail("naim disk read", detail)
		blob, err := l.getRepo().Get(h.key)
		l.stats.diskNanos.Add(sp.End())
		if err != nil {
			// A repository read failure is unrecoverable for this
			// compilation; the paper's compiler would abort. We
			// surface it as a panic carrying the cause.
			panic(fmt.Sprintf("naim: repository read for %s failed: %v", l.prog.Sym(pid).Name, err))
		}
		l.stats.diskReads.Add(1)
		l.ctr.diskReads.Add(1)
		h.blob = blob
		h.st = stCompacted
		l.adjust(int64(len(blob)) - h.bytes)
		h.bytes = int64(len(blob))
		l.expand(h)
	}
	if write && !h.dirty {
		l.markDirty(h)
	}
	h.pending = false
	h.pins++
	fn := h.fn
	s.mu.Unlock()
	l.enforce()
	return fn
}

// remeasure updates accounting for an expanded body that may have
// grown or shrunk since last touch (inlining grows callers in place).
// Caller holds the handle's shard lock.
func (l *Loader) remeasure(h *handle) {
	nb := ExpandedFuncBytes(h.fn) + int64(len(h.blob))
	if nb != h.bytes {
		l.adjust(nb - h.bytes)
		h.bytes = nb
	}
}

// expand uncompacts a pool (with eager swizzling of PID references).
// The expanded pool starts clean and keeps its compacted form: the
// repository key when the blob was read back from disk (the blob
// itself is dropped), otherwise the blob. Caller holds the handle's
// shard lock; the decode runs under it, so two clients racing to
// expand the same pool serialize here and the second observes a plain
// cache hit.
func (l *Loader) expand(h *handle) {
	scope := l.getScope()
	var detail string
	if scope.Enabled() {
		detail = l.symName(h.pid)
	}
	sp := scope.ChildDetail("naim expand", detail)
	f, err := DecodeFunc(l.prog, h.blob)
	l.stats.compactNanos.Add(sp.End())
	if err != nil {
		panic(fmt.Sprintf("naim: uncompaction of %s failed: %v", l.prog.Sym(h.pid).Name, err))
	}
	l.stats.expansions.Add(1)
	l.ctr.expansions.Add(1)
	h.fn = f
	if h.hasKey {
		h.blob = nil
	}
	h.st = stExpanded
	h.dirty = false
	h.gen = 0 // orphan any in-flight spill of the old blob
	nb := ExpandedFuncBytes(f) + int64(len(h.blob))
	l.adjust(nb - h.bytes)
	h.bytes = nb
	h.elem = l.shardFor(h.pid).lru.PushBack(h)
	l.expanded.Add(1)
}

// DoneWith drops one pin on a pool. When the last pin drops the pool
// becomes unload-pending: it moves to the cold end of its shard's
// expanded-pool cache and becomes a preferred eviction victim, but is
// not compacted until the cache actually needs the space (the paper's
// lazy unloader, section 4.3).
func (l *Loader) DoneWith(pid il.PID) {
	s := l.shardFor(pid)
	l.lockShard(s)
	h, ok := s.handles[pid]
	if !ok {
		s.mu.Unlock()
		return
	}
	if h.pins > 0 {
		h.pins--
	}
	if h.st == stExpanded {
		l.remeasure(h)
		if h.pins == 0 {
			h.pending = true
			s.lru.MoveToFront(h.elem)
		}
	}
	s.mu.Unlock()
	l.enforce()
}

// UnloadAll marks every unpinned expanded pool unload-pending.
// "Clients simply request that all unneeded pools are unloaded from
// memory[;] whether or not the objects actually get compacted and
// unloaded is determined internally by the loader." It returns the
// number of pools that stayed checked out — a non-zero return means
// some client leaked a pin (took Function without DoneWith).
func (l *Loader) UnloadAll() int {
	pinned := 0
	for i := range l.shards {
		s := &l.shards[i]
		l.lockShard(s)
		for e := s.lru.Front(); e != nil; e = e.Next() {
			h := e.Value.(*handle)
			l.remeasure(h)
			if h.pins > 0 {
				pinned++
				continue
			}
			h.pending = true
		}
		s.mu.Unlock()
	}
	l.enforce()
	return pinned
}

// enforce ratchets the NAIM level and evicts expanded pools until the
// cache bound and memory budget hold (or nothing evictable remains).
// It must be called with no shard lock held: victim compaction locks
// shards one at a time, and disk spills are enqueued lock-free.
func (l *Loader) enforce() {
	l.updateLevel()
	level := l.Level()
	if level >= LevelST {
		l.compactModules()
	}
	if level < LevelIR {
		return
	}
	// Cache bound: expanded pools beyond CacheSlots get compacted,
	// coldest-per-shard first in round-robin shard order.
	for l.expanded.Load() > int64(l.cfg.CacheSlots) {
		if !l.evictOne() {
			break
		}
	}
	// Budget bound: keep compacting while over budget.
	if l.cfg.BudgetBytes > 0 {
		for l.curBytes.Load() > l.cfg.BudgetBytes && l.expanded.Load() > 1 {
			if !l.evictOne() {
				break
			}
		}
	}
}

// updateLevel ratchets the adaptive level from the budget thresholds.
func (l *Loader) updateLevel() {
	if l.cfg.ForceLevel >= LevelOff {
		return // pinned at construction
	}
	if l.cfg.BudgetBytes <= 0 {
		return
	}
	cur := l.curBytes.Load()
	var want Level
	switch {
	case cur > l.cfg.BudgetBytes*85/100:
		want = LevelDisk
	case cur > l.cfg.BudgetBytes*70/100:
		want = LevelST
	case cur > l.cfg.BudgetBytes*50/100:
		want = LevelIR
	default:
		return
	}
	for {
		old := l.levelA.Load()
		if Level(old) >= want || l.levelA.CompareAndSwap(old, int32(want)) {
			return
		}
	}
}

// evictOne compacts the coldest evictable expanded pool of the next
// shard (round-robin) that has one; at LevelDisk the compacted blob
// is handed to the async writeback goroutine. Reports whether a
// victim was found anywhere. Checked-out (pinned) pools are never
// victims: compacting a body a client still holds would snapshot it
// mid-mutation and silently drop every edit made after the snapshot —
// generated code would then depend on the cache size, violating the
// paper's reproducibility contract (section 6.2: memory configuration
// changes compile cost, never output).
func (l *Loader) evictOne() bool {
	l.evictMu.Lock()
	n := uint32(len(l.shards))
	start := l.evictCursor
	for k := uint32(0); k < n; k++ {
		s := &l.shards[(start+k)&l.shardMask]
		l.lockShard(s)
		for e := s.lru.Front(); e != nil; e = e.Next() {
			h := e.Value.(*handle)
			if h.pins > 0 {
				continue
			}
			job := l.compactHandle(s, h)
			s.mu.Unlock()
			l.evictCursor = start + k + 1
			l.evictMu.Unlock()
			if job != nil {
				l.enqueueSpill(*job)
			}
			return true
		}
		s.mu.Unlock()
	}
	l.evictMu.Unlock()
	return false
}

// compactHandle evicts an expanded pool to relocatable form. A clean
// pool just drops its expanded form and falls back to the compacted
// form it kept; a dirty one is encoded afresh. At LevelDisk a pool
// whose content is not in the repository yet comes back as a spill
// job for the writeback goroutine (the pool is accounted at blob size
// until the write lands). Caller holds the shard lock.
func (l *Loader) compactHandle(s *shard, h *handle) *spillJob {
	l.remeasure(h)
	l.stats.evictions.Add(1)
	l.ctr.evictions.Add(1)
	s.lru.Remove(h.elem)
	l.expanded.Add(-1)
	h.elem = nil
	h.pending = false
	if h.dirty {
		scope := l.getScope()
		var detail string
		if scope.Enabled() {
			detail = l.symName(h.pid)
		}
		sp := scope.ChildDetail("naim compact", detail)
		// Function blobs use plain allocation rather than the arena: a
		// pool may cycle through compact/expand many times, and arena
		// space is only reclaimed wholesale. Module symtab blobs (below)
		// are compacted once and do use the arena.
		h.blob = EncodeFunc(h.fn, nil)
		l.stats.compactNanos.Add(sp.End())
		l.stats.compactions.Add(1)
		l.ctr.compactions.Add(1)
		h.dirty = false
	}
	h.fn = nil
	if h.hasKey {
		h.st = stOffloaded
		h.blob = nil
		l.adjust(BytesPerHandle - h.bytes)
		h.bytes = BytesPerHandle
		return nil
	}
	l.adjust(int64(len(h.blob)) - h.bytes)
	h.bytes = int64(len(h.blob))
	if l.Level() >= LevelDisk {
		h.st = stSpilling
		h.gen = l.genSeq.Add(1)
		return &spillJob{pid: h.pid, gen: h.gen, blob: h.blob}
	}
	h.st = stCompacted
	return nil
}

// landSpill finalizes a completed disk write: if the pool is still in
// the exact spilling state the job captured, it becomes offloaded and
// its blob bytes are released. A pool that was re-expanded (or
// reinstalled) in the meantime keeps its current state and the landed
// bytes become dead space in the append-only repository.
func (l *Loader) landSpill(j spillJob, key Key) {
	s := l.shardFor(j.pid)
	l.lockShard(s)
	h, ok := s.handles[j.pid]
	if ok && h.st == stSpilling && h.gen == j.gen {
		h.st = stOffloaded
		h.key = key
		h.hasKey = true
		h.blob = nil
		l.adjust(BytesPerHandle - h.bytes)
		h.bytes = BytesPerHandle
	}
	s.mu.Unlock()
}

// cancelSpill is the abandoned-write counterpart of landSpill: the
// enqueue was aborted by Config.Done, so if the pool is still in the
// exact spilling state the job captured it reverts to plain compacted.
// The blob stays resident and accounted, so nothing about CurBytes or
// a later Function() changes — the pool just spills again (or not) the
// next time eviction picks it. A pool re-expanded in the meantime
// keeps its current state, exactly as with a stale landing.
func (l *Loader) cancelSpill(j spillJob) {
	s := l.shardFor(j.pid)
	l.lockShard(s)
	h, ok := s.handles[j.pid]
	if ok && h.st == stSpilling && h.gen == j.gen {
		h.st = stCompacted
		h.gen = 0
	}
	s.mu.Unlock()
}

// compactModules compacts all module symbol tables (LevelST+).
func (l *Loader) compactModules() {
	l.modMu.Lock()
	defer l.modMu.Unlock()
	for i, m := range l.prog.Modules {
		if !l.modExpanded[i] {
			continue
		}
		sp := l.getScope().ChildDetail("naim symtab compact", m.Name)
		enc := EncodeModule(m)
		blob := l.arena.Alloc(len(enc))
		copy(blob, enc)
		l.modBlobs[i] = blob
		l.modExpanded[i] = false
		nb := compactModuleBytes(m)
		l.adjust(nb - l.modBytes[i])
		l.modBytes[i] = nb
		l.stats.compactions.Add(1)
		l.ctr.compactions.Add(1)
		l.stats.compactNanos.Add(sp.End())
	}
}

// ModuleDefs returns the definition list of module i, re-expanding
// its symbol table if it was compacted.
func (l *Loader) ModuleDefs(i int) []il.PID {
	l.modMu.Lock()
	m := l.prog.Modules[i]
	if !l.modExpanded[i] {
		sp := l.getScope().ChildDetail("naim symtab expand", m.Name)
		dec, err := DecodeModule(l.modBlobs[i])
		if err != nil {
			l.modMu.Unlock()
			panic(fmt.Sprintf("naim: module %s symtab uncompaction failed: %v", m.Name, err))
		}
		// Restore only the compacted fields; Name is immutable and may
		// be read concurrently by diagnostics.
		m.Defs = dec.Defs
		m.Externs = dec.Externs
		l.modExpanded[i] = true
		l.modBlobs[i] = nil
		nb := ExpandedModuleBytes(m)
		l.adjust(nb - l.modBytes[i])
		l.modBytes[i] = nb
		l.stats.expansions.Add(1)
		l.ctr.expansions.Add(1)
		l.stats.compactNanos.Add(sp.End())
	}
	defs := m.Defs
	l.modMu.Unlock()
	return defs
}

// Level reports the currently engaged NAIM level.
func (l *Loader) Level() Level { return Level(l.levelA.Load()) }

// Stats returns a snapshot of the loader counters. Call Flush first
// when exact disk-write figures matter: spills still in the writeback
// queue have not landed yet.
func (l *Loader) Stats() Stats {
	var lockWait int64
	for i := range l.shards {
		lockWait += l.shards[i].lockWait.Load()
	}
	return Stats{
		CurBytes:           l.curBytes.Load(),
		PeakBytes:          l.peakBytes.Load(),
		Installs:           l.stats.installs.Load(),
		CacheHits:          l.stats.hits.Load(),
		CacheMisses:        l.stats.misses.Load(),
		Evictions:          l.stats.evictions.Load(),
		Compactions:        l.stats.compactions.Load(),
		Expansions:         l.stats.expansions.Load(),
		DiskWrites:         l.stats.diskWrites.Load(),
		DiskReads:          l.stats.diskReads.Load(),
		CompactNanos:       l.stats.compactNanos.Load(),
		DiskNanos:          l.stats.diskNanos.Load(),
		LockWaitNanos:      lockWait,
		WritebackQueued:    l.stats.writebackQueued.Load(),
		WritebackPeakQueue: l.stats.writebackPeakQueue.Load(),
		WritebackBatches:   l.stats.writebackBatches.Load(),
	}
}

// ShardLockWaits reports per-shard lock-wait nanoseconds — where
// concurrent clients actually collide.
func (l *Loader) ShardLockWaits() []int64 {
	out := make([]int64, len(l.shards))
	for i := range l.shards {
		out[i] = l.shards[i].lockWait.Load()
	}
	return out
}

// getRepo returns the spill repository: the injected durable store if
// one was configured, otherwise an ephemeral store created on first
// use (and removed on Close).
func (l *Loader) getRepo() *Repository {
	if l.cfg.Repo != nil {
		return l.cfg.Repo
	}
	l.repoMu.Lock()
	defer l.repoMu.Unlock()
	if l.repo == nil {
		repo, err := NewRepository(l.cfg.Dir)
		if err != nil {
			panic(fmt.Sprintf("naim: cannot create repository: %v", err))
		}
		l.repo = repo
	}
	return l.repo
}

// RepositoryBytes reports bytes resident in the disk repository.
func (l *Loader) RepositoryBytes() int64 {
	if l.cfg.Repo != nil {
		return l.cfg.Repo.Size()
	}
	l.repoMu.Lock()
	repo := l.repo
	l.repoMu.Unlock()
	if repo == nil {
		return 0
	}
	return repo.Size()
}

// ExpandedPools reports how many pools are currently expanded.
func (l *Loader) ExpandedPools() int { return int(l.expanded.Load()) }

// PinnedPools reports how many pools are currently checked out.
func (l *Loader) PinnedPools() int {
	n := 0
	for i := range l.shards {
		s := &l.shards[i]
		l.lockShard(s)
		for _, h := range s.handles {
			if h.pins > 0 {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Close drains the writeback queue and releases the disk repository,
// if any (an injected Config.Repo is left open — its owner closes
// it). Like SetTraceScope it is a phase-boundary call: no
// Function/DoneWith may be in flight.
func (l *Loader) Close() error {
	l.wb.stop()
	l.repoMu.Lock()
	repo := l.repo
	l.repo = nil
	l.repoMu.Unlock()
	if repo != nil {
		return repo.Close()
	}
	return nil
}
