package naim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cmo/internal/il"
)

// The async spill writeback path. Eviction at LevelDisk compacts a
// pool and hands the blob to a single writeback goroutine over a
// bounded queue; the evicting client never waits for the disk unless
// the queue is full (backpressure). The pool stays accounted at blob
// size — dirty — until the write actually lands (landSpill), so
// CurBytes never credits space the repository does not yet hold.
// Function() can re-expand a pool whose write is still in flight
// straight from the resident blob; the generation check in landSpill
// then drops the stale landing as dead space in the append-only
// repository.

// spillJob is one pool headed for the repository. A nil-blob job with
// a non-nil flush channel is a drain barrier: the writeback goroutine
// closes the channel once every earlier job has landed.
type spillJob struct {
	pid   il.PID
	gen   uint64
	blob  []byte
	flush chan struct{}
}

// writeback owns the bounded queue and the single writer goroutine.
type writeback struct {
	ch      chan spillJob
	wg      sync.WaitGroup
	depth   atomic.Int64
	stopped bool
}

// startWriteback launches the writer; called once from NewLoader so
// the channel is immutable for the loader's whole life.
func (l *Loader) startWriteback() {
	l.wb.ch = make(chan spillJob, l.cfg.WritebackDepth)
	l.wb.wg.Add(1)
	go l.writebackLoop()
}

// enqueueSpill hands a compacted blob to the writer. Must be called
// with no shard lock held: a full queue blocks until the writer
// drains, and the writer takes shard locks to land writes. When the
// loader has a cancellation channel (Config.Done), a blocked enqueue
// aborts once it closes: the spill is reverted in place rather than
// written, so a cancelled build never waits on the disk.
func (l *Loader) enqueueSpill(j spillJob) {
	d := l.wb.depth.Add(1)
	for {
		peak := l.stats.writebackPeakQueue.Load()
		if d <= peak {
			break
		}
		if l.stats.writebackPeakQueue.CompareAndSwap(peak, d) {
			l.ctr.wbPeak.Set(d)
			break
		}
	}
	if l.cfg.Done != nil {
		select {
		case <-l.cfg.Done:
			l.wb.depth.Add(-1)
			l.cancelSpill(j)
			return
		default:
		}
		select {
		case l.wb.ch <- j:
		case <-l.cfg.Done:
			l.wb.depth.Add(-1)
			l.cancelSpill(j)
			return
		}
	} else {
		l.wb.ch <- j
	}
	l.stats.writebackQueued.Add(1)
	l.ctr.wbQueued.Add(1)
}

// writebackLoop is the single writer: repository writes stay ordered
// and the append-only offset needs no lock. The loop group-commits: it
// blocks for the first job, then greedily drains whatever else is
// already queued (bounded, so one landing never holds an unbounded
// byte pile) and lands the whole run with a single batched repository
// append. Under eviction bursts — a big program spilling at LevelDisk
// while Jobs workers churn the cache — this collapses N lock
// acquisitions and N system calls into one of each.
const writebackBatchMax = 64

func (l *Loader) writebackLoop() {
	defer l.wb.wg.Done()
	batch := make([]spillJob, 0, writebackBatchMax)
	for j := range l.wb.ch {
		batch = append(batch[:0], j)
	drain:
		for len(batch) < writebackBatchMax {
			select {
			case nj, ok := <-l.wb.ch:
				if !ok {
					break drain // closed: land what we hold, then exit via range
				}
				batch = append(batch, nj)
			default:
				break drain
			}
		}
		l.writeBatch(batch)
	}
}

// writeBatch lands an ordered slice of queued jobs: runs of spill jobs
// become one batched repository append each, and flush barriers close
// only after every job queued before them has landed.
func (l *Loader) writeBatch(jobs []spillJob) {
	i := 0
	for i < len(jobs) {
		if jobs[i].flush != nil {
			close(jobs[i].flush)
			i++
			continue
		}
		run := i
		for run < len(jobs) && jobs[run].flush == nil {
			run++
		}
		l.landBatch(jobs[i:run])
		i = run
	}
}

// landBatch writes one run of spills with a single PutBatch and lands
// each at its content key.
func (l *Loader) landBatch(run []spillJob) {
	scope := l.getScope()
	var detail string
	if scope.Enabled() {
		if len(run) == 1 {
			detail = l.symName(run[0].pid)
		} else {
			detail = fmt.Sprintf("%d pools", len(run))
		}
	}
	sp := scope.ChildDetail("naim disk write", detail)
	blobs := make([][]byte, len(run))
	for i := range run {
		blobs[i] = run[i].blob
	}
	keys, appended, err := l.getRepo().PutBatch(blobs)
	l.stats.diskNanos.Add(sp.End())
	if err != nil {
		panic(fmt.Sprintf("naim: repository write failed: %v", err))
	}
	// A spill whose content the repository already holds lands at the
	// existing record; only appended records are disk writes.
	l.stats.diskWrites.Add(int64(appended))
	l.ctr.diskWrites.Add(int64(appended))
	l.stats.writebackBatches.Add(1)
	l.ctr.wbBatches.Add(1)
	for i := range run {
		l.landSpill(run[i], keys[i])
		l.wb.depth.Add(-1)
	}
}

// Flush blocks until every spill enqueued so far has landed in the
// repository. Safe to call concurrently with other loader operations
// (but not with Close); a loader that never spilled returns after one
// channel round trip.
func (l *Loader) Flush() {
	if l.wb.stopped {
		return
	}
	done := make(chan struct{})
	l.wb.ch <- spillJob{flush: done}
	<-done
}

// stop drains the queue and retires the writer goroutine.
func (w *writeback) stop() {
	if w.stopped {
		return
	}
	w.stopped = true
	close(w.ch)
	w.wg.Wait()
}
