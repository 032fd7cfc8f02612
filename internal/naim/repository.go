package naim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Repository is the on-disk store for relocatable pools: a durable,
// versioned, content-addressed blob store. Unlike the original
// scratch-file design (where the repository lived only for one
// optimization session), the repository is now the durable home of
// optimizer state — what lets cross-module optimization amortize work
// across edit-compile cycles (paper section 6.1 stores persistent
// information in object files; we store it here, keyed by content).
//
// On disk a repository is a directory holding two files:
//
//	repo.log   append-only blob log. A fixed version header followed
//	           by framed records: marker byte, 32-byte key, varint
//	           length, blob, CRC32 of key+blob.
//	MANIFEST   the committed index: key -> (offset, length) for every
//	           blob the log held at the last Commit, plus the log
//	           length it covers. Written atomically (temp file, fsync,
//	           rename, directory fsync) so a crash never leaves a
//	           half-written manifest.
//
// Recovery: Open loads the manifest, then scans the log tail beyond
// the manifest's high-water mark, re-indexing complete records and
// truncating a torn final record (a crash mid-append). A version
// mismatch in either file resets the store — it is a cache; starting
// empty is always safe.
//
// Reads are safe from any number of goroutines and may overlap the
// single writer (the NAIM writeback goroutine, or a Session's cache
// stage) because a blob is only read back through a key returned by a
// completed Put.
type Repository struct {
	dir       string
	path      string // blob log path
	ephemeral bool   // remove on Close (the scratch-spill configuration)

	f *os.File

	mu        sync.RWMutex
	index     map[Key]entry
	off       int64 // append cursor (== current log length)
	committed int64 // log length covered by the last manifest commit

	reads  atomic.Int64
	writes atomic.Int64
	bytesW atomic.Int64
	bytesR atomic.Int64
	dups   atomic.Int64

	recoveredTail  int   // records re-indexed from the uncommitted tail
	truncatedBytes int64 // torn-tail bytes dropped during Open
}

// Key is a 32-byte content identifier: the SHA-256 of a blob for
// content-addressed entries, or a fingerprint hash for derived-record
// entries (both are pure functions of build inputs).
type Key [32]byte

// KeyOf returns the content key of a blob.
func KeyOf(b []byte) Key { return sha256.Sum256(b) }

// KeyOfStrings hashes a sequence of strings into a key, length-
// prefixing each part so concatenation ambiguity cannot collide.
func KeyOfStrings(parts ...string) Key {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

func (k Key) String() string { return fmt.Sprintf("%x", k[:8]) }

type entry struct {
	off int64 // offset of the blob bytes within the log
	n   int64 // blob length
}

// Log format constants. Bump logVersion whenever the framing changes:
// stale stores are discarded wholesale on open.
const (
	logMagic      = "NAIMREP\x02"
	manifestMagic = "NAIMMAN\x02"
	logName       = "repo.log"
	manifestName  = "MANIFEST"
	recMark       = 0xB7
	recHeadMax    = 1 + 32 + binary.MaxVarintLen64
)

// Errors the repository surfaces. ErrNotFound reports a key the index
// does not hold; corrupt-store conditions carry detail text.
var (
	ErrNotFound = errors.New("naim: repository: key not found")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Open opens (creating if necessary) a durable repository in dir.
// Torn tails are truncated, uncommitted-but-complete records are
// recovered, and version mismatches reset the store to empty.
func Open(dir string) (*Repository, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("naim: creating repository dir: %w", err)
	}
	r := &Repository{
		dir:   dir,
		path:  filepath.Join(dir, logName),
		index: make(map[Key]entry),
	}
	f, err := os.OpenFile(r.path, os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, fmt.Errorf("naim: opening repository log: %w", err)
	}
	r.f = f
	if err := r.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// OpenTemp creates an ephemeral repository backed by a temp directory
// under dir ("" = the system temp directory). Close removes it. This
// is the scratch-spill configuration the loader uses when no durable
// cache directory is set.
func OpenTemp(dir string) (*Repository, error) {
	td, err := os.MkdirTemp(dir, "naim-repo-*")
	if err != nil {
		return nil, fmt.Errorf("naim: creating repository: %w", err)
	}
	r, err := Open(td)
	if err != nil {
		os.RemoveAll(td)
		return nil, err
	}
	r.ephemeral = true
	return r, nil
}

// NewRepository creates an ephemeral repository (the historical
// scratch-file behavior); see OpenTemp.
func NewRepository(dir string) (*Repository, error) {
	if dir != "" {
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			return nil, fmt.Errorf("naim: creating repository: no such directory %q", dir)
		}
	}
	return OpenTemp(dir)
}

// recover initializes the index from the manifest and the log tail.
func (r *Repository) recover() error {
	st, err := r.f.Stat()
	if err != nil {
		return fmt.Errorf("naim: repository stat: %w", err)
	}
	size := st.Size()

	// Header: absent or mismatched (old format version) resets the
	// store — repository contents are always reconstructible.
	head := make([]byte, len(logMagic))
	okHeader := false
	if size >= int64(len(logMagic)) {
		if _, err := r.f.ReadAt(head, 0); err == nil && string(head) == logMagic {
			okHeader = true
		}
	}
	if !okHeader {
		if err := r.reset(); err != nil {
			return err
		}
		return nil
	}

	// Manifest: load if present and internally consistent.
	start := int64(len(logMagic))
	scanFrom := start
	if man, logLen, ok := r.loadManifest(size); ok {
		r.index = man
		r.committed = logLen
		scanFrom = logLen
	}

	// Tail scan: re-index complete records appended after the last
	// commit; truncate at the first torn or corrupt record.
	pos := scanFrom
	for pos < size {
		key, blobOff, blobLen, next, ok := r.readRecordHeader(pos, size)
		if !ok {
			break
		}
		if !r.verifyRecord(key, blobOff, blobLen) {
			break
		}
		if _, dup := r.index[key]; !dup {
			r.index[key] = entry{off: blobOff, n: blobLen}
		}
		r.recoveredTail++
		pos = next
	}
	if pos < size {
		r.truncatedBytes = size - pos
		if err := r.f.Truncate(pos); err != nil {
			return fmt.Errorf("naim: truncating torn repository tail: %w", err)
		}
	}
	r.off = pos
	return nil
}

// reset wipes the store back to an empty, current-version state.
func (r *Repository) reset() error {
	if err := r.f.Truncate(0); err != nil {
		return fmt.Errorf("naim: repository reset: %w", err)
	}
	if _, err := r.f.WriteAt([]byte(logMagic), 0); err != nil {
		return fmt.Errorf("naim: repository header: %w", err)
	}
	os.Remove(filepath.Join(r.dir, manifestName))
	r.index = make(map[Key]entry)
	r.off = int64(len(logMagic))
	r.committed = 0
	return nil
}

// readRecordHeader parses one record frame at pos. It returns the key,
// the blob's offset and length, and the offset of the next record.
func (r *Repository) readRecordHeader(pos, size int64) (key Key, blobOff, blobLen, next int64, ok bool) {
	headLen := recHeadMax
	if int64(headLen) > size-pos {
		headLen = int(size - pos)
	}
	head := make([]byte, headLen)
	if _, err := r.f.ReadAt(head, pos); err != nil {
		return key, 0, 0, 0, false
	}
	if len(head) < 1+32+1 || head[0] != recMark {
		return key, 0, 0, 0, false
	}
	copy(key[:], head[1:33])
	n, used := binary.Uvarint(head[33:])
	if used <= 0 || n > uint64(size) {
		return key, 0, 0, 0, false
	}
	blobOff = pos + int64(33+used)
	blobLen = int64(n)
	next = blobOff + blobLen + 4 // + CRC32 trailer
	if next > size {
		return key, 0, 0, 0, false
	}
	return key, blobOff, blobLen, next, true
}

// verifyRecord checks a record's CRC against its key and blob.
func (r *Repository) verifyRecord(key Key, blobOff, blobLen int64) bool {
	buf := make([]byte, blobLen+4)
	if _, err := r.f.ReadAt(buf, blobOff); err != nil {
		return false
	}
	sum := crc32.Checksum(key[:], crcTable)
	sum = crc32.Update(sum, crcTable, buf[:blobLen])
	return binary.LittleEndian.Uint32(buf[blobLen:]) == sum
}

// loadManifest reads and validates the manifest. It reports the index
// it holds and the log length it covers.
func (r *Repository) loadManifest(logSize int64) (map[Key]entry, int64, bool) {
	b, err := os.ReadFile(filepath.Join(r.dir, manifestName))
	if err != nil {
		return nil, 0, false
	}
	if len(b) < len(manifestMagic)+4 || string(b[:len(manifestMagic)]) != manifestMagic {
		return nil, 0, false
	}
	body := b[len(manifestMagic) : len(b)-4]
	wantSum := binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, crcTable) != wantSum {
		return nil, 0, false
	}
	pos := 0
	readUvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	logLen, ok := readUvarint()
	if !ok || int64(logLen) > logSize || int64(logLen) < int64(len(logMagic)) {
		return nil, 0, false
	}
	count, ok := readUvarint()
	if !ok {
		return nil, 0, false
	}
	idx := make(map[Key]entry, count)
	for i := uint64(0); i < count; i++ {
		if pos+32 > len(body) {
			return nil, 0, false
		}
		var k Key
		copy(k[:], body[pos:pos+32])
		pos += 32
		off, ok1 := readUvarint()
		n, ok2 := readUvarint()
		if !ok1 || !ok2 {
			return nil, 0, false
		}
		// Bounds: a manifest entry must point inside the log region it
		// claims to cover.
		if int64(off) < int64(len(logMagic)) || int64(off)+int64(n) > int64(logLen) {
			return nil, 0, false
		}
		idx[k] = entry{off: int64(off), n: int64(n)}
	}
	if pos != len(body) {
		return nil, 0, false
	}
	return idx, int64(logLen), true
}

// Put stores a blob under an explicit key (a fingerprint hash). A key
// already present is left untouched — entries are immutable, so equal
// keys mean equal content for content-addressed writes and equal
// build inputs for fingerprint-keyed records.
func (r *Repository) Put(key Key, blob []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.index[key]; ok {
		r.dups.Add(1)
		return nil
	}
	rec := make([]byte, 0, recHeadMax+len(blob)+4)
	rec = append(rec, recMark)
	rec = append(rec, key[:]...)
	rec = binary.AppendUvarint(rec, uint64(len(blob)))
	blobOff := r.off + int64(len(rec))
	rec = append(rec, blob...)
	sum := crc32.Checksum(key[:], crcTable)
	sum = crc32.Update(sum, crcTable, blob)
	rec = binary.LittleEndian.AppendUint32(rec, sum)
	if _, err := r.f.WriteAt(rec, r.off); err != nil {
		return fmt.Errorf("naim: repository write: %w", err)
	}
	r.index[key] = entry{off: blobOff, n: int64(len(blob))}
	r.off += int64(len(rec))
	r.writes.Add(1)
	r.bytesW.Add(int64(len(blob)))
	return nil
}

// PutContent stores a blob under its content hash and returns the key.
func (r *Repository) PutContent(blob []byte) (Key, error) {
	key := KeyOf(blob)
	return key, r.Put(key, blob)
}

// PutBatch stores several blobs under their content hashes in one
// locked append — the group-commit path. The records are framed into a
// single buffer and land with one WriteAt, so a burst of spills pays
// one lock acquisition and one system call instead of one each.
// Duplicates (already stored, or repeated within the batch) are
// skipped like Put skips them; every position still gets its key, and
// appended counts only the records that actually landed. The index is
// updated only after the write succeeds, so a failed batch stores
// nothing.
func (r *Repository) PutBatch(blobs [][]byte) (keys []Key, appended int, err error) {
	keys = make([]Key, len(blobs))
	r.mu.Lock()
	defer r.mu.Unlock()
	var rec []byte
	staged := make(map[Key]entry, len(blobs))
	var nWrites, nBytes int64
	for i, b := range blobs {
		k := KeyOf(b)
		keys[i] = k
		if _, ok := r.index[k]; ok {
			r.dups.Add(1)
			continue
		}
		if _, ok := staged[k]; ok {
			r.dups.Add(1)
			continue
		}
		rec = append(rec, recMark)
		rec = append(rec, k[:]...)
		rec = binary.AppendUvarint(rec, uint64(len(b)))
		blobOff := r.off + int64(len(rec))
		rec = append(rec, b...)
		sum := crc32.Checksum(k[:], crcTable)
		sum = crc32.Update(sum, crcTable, b)
		rec = binary.LittleEndian.AppendUint32(rec, sum)
		staged[k] = entry{off: blobOff, n: int64(len(b))}
		nWrites++
		nBytes += int64(len(b))
	}
	if len(rec) == 0 {
		return keys, 0, nil
	}
	if _, err := r.f.WriteAt(rec, r.off); err != nil {
		return keys, 0, fmt.Errorf("naim: repository batch write: %w", err)
	}
	for k, e := range staged {
		r.index[k] = e
	}
	r.off += int64(len(rec))
	r.writes.Add(nWrites)
	r.bytesW.Add(nBytes)
	return keys, int(nWrites), nil
}

// Get returns the blob stored under key. Missing keys return
// ErrNotFound; an index entry pointing outside the log, or a blob
// failing its checksum, returns an explicit corruption error rather
// than a short or silently wrong read.
func (r *Repository) Get(key Key) ([]byte, error) {
	r.mu.RLock()
	e, ok := r.index[key]
	size := r.off
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, key)
	}
	if e.off < int64(len(logMagic)) || e.n < 0 || e.off+e.n+4 > size {
		return nil, fmt.Errorf("naim: repository: entry %v out of range (off %d, len %d, log %d)", key, e.off, e.n, size)
	}
	buf := make([]byte, e.n+4)
	if _, err := r.f.ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("naim: repository read: %w", err)
	}
	sum := crc32.Checksum(key[:], crcTable)
	sum = crc32.Update(sum, crcTable, buf[:e.n])
	if binary.LittleEndian.Uint32(buf[e.n:]) != sum {
		return nil, fmt.Errorf("naim: repository: blob %v fails checksum", key)
	}
	r.reads.Add(1)
	r.bytesR.Add(e.n)
	return buf[:e.n:e.n], nil
}

// Has reports whether key is stored.
func (r *Repository) Has(key Key) bool {
	r.mu.RLock()
	_, ok := r.index[key]
	r.mu.RUnlock()
	return ok
}

// Len reports the number of stored blobs.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.index)
}

// Keys returns every stored key (unspecified order).
func (r *Repository) Keys() []Key {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Key, 0, len(r.index))
	for k := range r.index {
		out = append(out, k)
	}
	return out
}

// Size reports the physical log size in blob-holding bytes (records
// plus dead space from GC-pending garbage; the header is excluded).
func (r *Repository) Size() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.off - int64(len(logMagic))
}

// LiveBytes reports the summed length of indexed blobs.
func (r *Repository) LiveBytes() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var n int64
	for _, e := range r.index {
		n += e.n
	}
	return n
}

// Traffic reports cumulative write and read blob byte counts.
func (r *Repository) Traffic() (written, read int64) { return r.bytesW.Load(), r.bytesR.Load() }

// DupPuts reports writes elided because the key was already stored —
// the content-addressing dividend.
func (r *Repository) DupPuts() int64 { return r.dups.Load() }

// Recovered reports what Open salvaged: complete records re-indexed
// from the uncommitted log tail, and torn-tail bytes truncated.
func (r *Repository) Recovered() (tailRecords int, truncatedBytes int64) {
	return r.recoveredTail, r.truncatedBytes
}

// UncommittedBytes reports log bytes appended since the last durable
// Commit — the backlog a crash would have to recover by tail scan.
// The serving layer exposes it as a per-daemon commit-backlog gauge.
func (r *Repository) UncommittedBytes() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.off - r.committed
}

// Commit makes the current contents durable: the log is fsynced, then
// the manifest is written to a temp file, fsynced, atomically renamed
// into place, and the directory entry is fsynced. After Commit
// returns, a crash (even mid-future-append) recovers at least this
// state.
func (r *Repository) Commit() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.commitLocked()
}

func (r *Repository) commitLocked() error {
	if err := r.f.Sync(); err != nil {
		return fmt.Errorf("naim: repository log sync: %w", err)
	}
	body := make([]byte, 0, 16+len(r.index)*(32+2*binary.MaxVarintLen64))
	body = binary.AppendUvarint(body, uint64(r.off))
	body = binary.AppendUvarint(body, uint64(len(r.index)))
	// Deterministic manifest bytes: entries in sorted key order.
	keys := make([]Key, 0, len(r.index))
	for k := range r.index {
		keys = append(keys, k)
	}
	sortKeys(keys)
	for _, k := range keys {
		e := r.index[k]
		body = append(body, k[:]...)
		body = binary.AppendUvarint(body, uint64(e.off))
		body = binary.AppendUvarint(body, uint64(e.n))
	}
	buf := make([]byte, 0, len(manifestMagic)+len(body)+4)
	buf = append(buf, manifestMagic...)
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, crcTable))

	tmpPath := filepath.Join(r.dir, manifestName+".tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("naim: manifest temp: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("naim: manifest write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("naim: manifest sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("naim: manifest close: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(r.dir, manifestName)); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("naim: manifest rename: %w", err)
	}
	if d, err := os.Open(r.dir); err == nil {
		d.Sync()
		d.Close()
	}
	r.committed = r.off
	return nil
}

// GC rewrites the log keeping only blobs for which live returns true,
// reclaiming dead space (orphaned spills, invalidated cache records).
// The new log is written beside the old one and atomically renamed
// over it, then the manifest is committed; a crash at any point leaves
// either the complete old store or the complete new one. It returns
// the number of blobs dropped and the bytes reclaimed.
func (r *Repository) GC(live func(Key) bool) (dropped int, reclaimed int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	tmpPath := r.path + ".gc"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return 0, 0, fmt.Errorf("naim: gc temp: %w", err)
	}
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpPath)
	}
	if _, err := tmp.Write([]byte(logMagic)); err != nil {
		cleanup()
		return 0, 0, fmt.Errorf("naim: gc header: %w", err)
	}
	oldSize := r.off
	newIndex := make(map[Key]entry, len(r.index))
	newOff := int64(len(logMagic))
	keys := make([]Key, 0, len(r.index))
	for k := range r.index {
		keys = append(keys, k)
	}
	sortKeys(keys)
	for _, k := range keys {
		e := r.index[k]
		if live != nil && !live(k) {
			dropped++
			continue
		}
		blob := make([]byte, e.n+4)
		if _, err := r.f.ReadAt(blob, e.off); err != nil {
			cleanup()
			return 0, 0, fmt.Errorf("naim: gc read: %w", err)
		}
		rec := make([]byte, 0, recHeadMax+len(blob))
		rec = append(rec, recMark)
		rec = append(rec, k[:]...)
		rec = binary.AppendUvarint(rec, uint64(e.n))
		blobOff := newOff + int64(len(rec))
		rec = append(rec, blob...) // blob + original CRC trailer
		if _, err := tmp.Write(rec); err != nil {
			cleanup()
			return 0, 0, fmt.Errorf("naim: gc write: %w", err)
		}
		newIndex[k] = entry{off: blobOff, n: e.n}
		newOff += int64(len(rec))
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return 0, 0, fmt.Errorf("naim: gc sync: %w", err)
	}
	if err := os.Rename(tmpPath, r.path); err != nil {
		cleanup()
		return 0, 0, fmt.Errorf("naim: gc swap: %w", err)
	}
	old := r.f
	r.f = tmp
	old.Close()
	r.index = newIndex
	r.off = newOff
	reclaimed = oldSize - newOff
	if err := r.commitLocked(); err != nil {
		return dropped, reclaimed, err
	}
	return dropped, reclaimed, nil
}

// Close commits (durable stores) or removes (ephemeral stores) the
// repository.
func (r *Repository) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ephemeral {
		err := r.f.Close()
		if rmErr := os.RemoveAll(r.dir); err == nil {
			err = rmErr
		}
		return err
	}
	if err := r.commitLocked(); err != nil {
		r.f.Close()
		return err
	}
	return r.f.Close()
}

// sortKeys orders keys bytewise (deterministic manifests and GC logs).
func sortKeys(keys []Key) {
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i][:], keys[j][:]) < 0 })
}
