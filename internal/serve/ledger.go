package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// The persistent build ledger: one JSONL record per daemon build,
// appended under the build's cache directory next to the artifact
// repository it describes. The ledger is what turns "the daemon served
// some builds" into an auditable history — /builds serves it, cmostat
// summarizes it, and on daemon restart each session's ledger is
// replayed into the telemetry registry so fleet totals survive the
// process.
//
// Durability follows the naim blob log's discipline at lower stakes:
// appends are buffered writes with no per-record fsync (the ledger is
// advisory, losing the last records in a crash is acceptable), and
// Open truncation-recovers — a torn or corrupt final line, the
// signature of a crash mid-append, is dropped and the file truncated
// back to the last complete record. The file is bounded: when it
// grows past twice the retention cap it is compacted in place
// (rewrite-and-rename) down to the most recent cap records.

// BuildRecord is one build's ledger entry. Phase nanos are the
// BuildStats figures; counters that identify the build (request id,
// cache dir, options fingerprint) make records greppable across a
// fleet's logs.
type BuildRecord struct {
	ID         string `json:"id"`
	UnixMillis int64  `json:"unix_ms"`
	CacheDir   string `json:"cache_dir,omitempty"`
	// OptionsFP fingerprints the request options (level, entry,
	// selectivity, volatile set, module names) — same fingerprint,
	// same build shape, so latency comparisons group correctly.
	OptionsFP string `json:"options_fp"`
	Outcome   string `json:"outcome"` // ok | failed | canceled
	Error     string `json:"error,omitempty"`
	Modules   int    `json:"modules"`
	Jobs      int    `json:"jobs"`

	QueueNanos    int64 `json:"queue_ns"`
	TotalNanos    int64 `json:"total_ns"`
	FrontendNanos int64 `json:"frontend_ns"`
	SelectNanos   int64 `json:"select_ns"`
	IPANanos      int64 `json:"ipa_ns"`
	HLONanos      int64 `json:"hlo_ns"`
	LLONanos      int64 `json:"llo_ns"`
	LinkNanos     int64 `json:"link_ns"`
	VerifyNanos   int64 `json:"verify_ns"`

	NAIMPeakBytes  int64 `json:"naim_peak_bytes"`
	CodeBytes      int64 `json:"code_bytes"`
	FrontendHits   int   `json:"fe_hits"`
	FrontendMisses int   `json:"fe_misses"`
	HLOHits        int   `json:"hlo_hits"`
	HLOMisses      int   `json:"hlo_misses"`
	LLOHits        int   `json:"llo_hits,omitempty"`
	LLOMisses      int   `json:"llo_misses,omitempty"`

	// Dependency-graph figures (zero/false when the build ran without
	// a graph — disconnected session or NoDepGraph).
	GraphNodes         int   `json:"graph_nodes,omitempty"`
	GraphEdges         int   `json:"graph_edges,omitempty"`
	GraphDirtyClosure  int   `json:"graph_dirty_closure,omitempty"`
	GraphCriticalNanos int64 `json:"graph_critical_ns,omitempty"`
	GraphFrontier      int   `json:"graph_frontier,omitempty"`
	GraphImageReplay   bool  `json:"graph_image_replay,omitempty"`

	// Partitioned-backend figures (zero when the build never reached
	// codegen).
	Partitions       int `json:"partitions,omitempty"`
	PartitionsClean  int `json:"partitions_clean,omitempty"`
	PartitionsLocal  int `json:"partitions_local,omitempty"`
	PartitionsRemote int `json:"partitions_remote,omitempty"`
	PartitionRetries int `json:"partition_retries,omitempty"`

	// Replayed marks records loaded from a ledger on session open
	// rather than served by this process; their traces are gone.
	Replayed bool `json:"-"`
}

// ledgerName is the ledger's filename inside a cache directory.
const ledgerName = "ledger.jsonl"

// Ledger is one cache directory's persistent build history.
type Ledger struct {
	mu    sync.Mutex
	path  string
	f     *os.File
	cap   int // records retained in memory and after compaction
	lines int // complete records currently in the file
}

// OpenLedger opens (creating if needed) the ledger in dir, recovering
// from a torn tail and compacting an oversized file. It returns the
// handle and the retained records, oldest first, for replay.
func OpenLedger(dir string, cap int) (*Ledger, []BuildRecord, error) {
	if cap <= 0 {
		cap = 512
	}
	l := &Ledger{path: filepath.Join(dir, ledgerName), cap: cap}
	records, goodBytes, total, err := l.scan()
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_RDWR, 0o666)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: opening ledger: %w", err)
	}
	l.f = f
	if fi, err := f.Stat(); err == nil && fi.Size() > goodBytes {
		// Torn tail: a crash mid-append left a partial line. Drop it.
		if err := f.Truncate(goodBytes); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("serve: truncating torn ledger tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, err
	}
	l.lines = total
	if total > 2*cap {
		if err := l.compactLocked(records); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return l, records, nil
}

// scan reads the ledger file, returning the last cap records (oldest
// first), the byte offset of the end of the last complete record, and
// the number of complete records.
func (l *Ledger) scan() (records []BuildRecord, goodBytes int64, total int, err error) {
	data, err := os.ReadFile(l.path)
	if os.IsNotExist(err) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("serve: reading ledger: %w", err)
	}
	pos := int64(0)
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // partial final line: torn tail
		}
		line := data[:nl]
		var rec BuildRecord
		if json.Unmarshal(line, &rec) != nil || rec.ID == "" {
			break // corrupt record: truncate here, like the blob log
		}
		rec.Replayed = true
		records = append(records, rec)
		total++
		pos += int64(nl) + 1
		data = data[nl+1:]
	}
	if len(records) > l.cap {
		records = append([]BuildRecord(nil), records[len(records)-l.cap:]...)
	}
	return records, pos, total, nil
}

// Append writes one record. Failures degrade to a shorter history
// rather than failing the build that produced the record.
func (l *Ledger) Append(rec BuildRecord) error {
	if l == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("serve: ledger closed")
	}
	if _, err := l.f.Write(line); err != nil {
		return fmt.Errorf("serve: appending ledger record: %w", err)
	}
	l.lines++
	if l.lines > 2*l.cap {
		// Compaction needs the retained tail; re-scan in memory.
		records, _, _, err := l.scan()
		if err != nil {
			return err
		}
		return l.compactLocked(records)
	}
	return nil
}

// compactLocked rewrites the ledger down to the retained records via
// temp-file-and-rename, so a crash mid-compaction leaves either the
// old file or the new one, never a mix.
func (l *Ledger) compactLocked(records []BuildRecord) error {
	tmp := l.path + ".tmp"
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, rec := range records {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	w.Flush()
	if err := os.WriteFile(tmp, buf.Bytes(), 0o666); err != nil {
		return fmt.Errorf("serve: writing compacted ledger: %w", err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return fmt.Errorf("serve: installing compacted ledger: %w", err)
	}
	// Reopen the handle on the new inode.
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o666)
	if err != nil {
		return fmt.Errorf("serve: reopening compacted ledger: %w", err)
	}
	old := l.f
	l.f = f
	l.lines = len(records)
	if old != nil {
		old.Close()
	}
	return nil
}

// Sync flushes the ledger to disk (drain-time durability).
func (l *Ledger) Sync() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	return l.f.Sync()
}

// Close syncs and releases the file.
func (l *Ledger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
