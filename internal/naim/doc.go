// Package naim implements NAIM — "Not All In Memory" — the paper's
// section-4.3 answer to whole-program optimization that does not fit
// in RAM: function bodies live in per-routine pools that the Loader
// compacts, caches, and offloads to a durable repository as memory
// pressure grows, while clients keep pulling bodies through one
// uniform interface.
//
// # Levels
//
// Machinery engages in stages (Level, thresholds derived from
// Config.BudgetBytes): LevelOff keeps everything expanded; LevelIR
// compacts routine pools evicted from the expanded-pool LRU cache to
// relocatable form; LevelST additionally compacts module symbol
// tables; LevelDisk additionally spills compacted pools to the
// on-disk Repository through an async bounded writeback queue
// (writeback.go). The level never changes what a client observes —
// only where bytes live and what a checkout costs.
//
// # Pin discipline
//
// The loader's correctness contract is a strict checkout protocol:
//
//   - Loader.Function(pid) and Loader.View(pid) return the expanded
//     body and pin it. A pinned pool is never compacted, evicted, or
//     spilled out from under its holder, no matter how far over budget
//     the cache is.
//   - Function is a write checkout: the holder may change the body in
//     place. View is a read checkout: the holder only reads, or calls
//     Loader.MarkDirty(pid) before releasing if it changed the body
//     after all (HLO transforms view a body and mark it dirty only when
//     they rewrote it).
//   - Loader.DoneWith(pid) unpins one checkout. Pins nest: concurrent
//     clients (Jobs > 1 codegen workers, verification passes) each
//     hold their own pin on the same pool, and the pool stays
//     resident until the count reaches zero. Nothing may read the body
//     after its holder's DoneWith; the pindiscipline lint flags a read
//     that follows the release in the same function.
//   - Every code path — success, error, cancellation — must balance
//     each checkout with exactly one DoneWith before leaving.
//     Loader.UnloadAll, called at pipeline end, reports the number of
//     still-pinned pools; the pipeline surfaces that as
//     BuildStats.PinLeaks and the cmoc driver treats nonzero as an
//     internal error. Aborted builds annotate their error when the
//     aborting stage left checkouts behind.
//
// A pool's compacted form is a cache of its content, not a move (the
// paper's section 4.2 loader). A pool expanded from its relocatable
// blob keeps that blob, or just its repository key once the blob was
// spilled, and stays clean until a write checkout, MarkDirty or
// InstallFunc invalidates it. Evicting a clean pool drops the expanded
// form and falls back to what it kept: no encode, no hash, no
// writeback. Only a dirty pool is encoded afresh, and at LevelDisk
// only content the repository does not hold yet is written, so
// Stats.DiskWrites counts appended records. A read checkout that
// changes its body without MarkDirty loses the change at the next
// eviction; the root package's one-slot LevelDisk differential test
// catches such a site.
//
// # Concurrency
//
// The handle table and LRU are sharded (Config.Shards), each shard
// independently locked, so parallel pipeline phases check bodies in
// and out without a global bottleneck; contention is observable as
// Stats.LockWaitNanos. The Repository serializes itself internally
// and is safe for concurrent Put/Get/Commit from many loaders and
// sessions in one process. Spills travel from eviction to disk
// through a single writeback goroutine; Config.Done lets a cancelled
// build abandon a blocked spill enqueue with the pool reverted to
// plain compacted, never half-written.
//
// # Repository
//
// The Repository (repository.go) is the durable half: an append-only,
// content-addressed blob log with a MANIFEST, fsynced on Commit and
// crash-consistent on reopen. It backs both disk offload (this
// package) and the build Session's incremental artifacts (package
// cmo), so one cache directory holds every durable byproduct of a
// build. Relocatable pool encoding lives in codec.go/portable.go; the
// byte-size model every accounting decision uses is sizemodel.go.
package naim
