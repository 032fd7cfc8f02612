package naim

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestRepositoryPutGet(t *testing.T) {
	repo, err := NewRepository(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	blobs := [][]byte{
		[]byte("alpha"),
		[]byte(""),
		bytes.Repeat([]byte{0xAB}, 10000),
		[]byte("omega"),
	}
	var keys []Key
	for _, b := range blobs {
		key, err := repo.PutContent(b)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	// Reads in arbitrary order.
	for _, i := range []int{3, 0, 2, 1} {
		got, err := repo.Get(keys[i])
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, blobs[i]) {
			t.Errorf("blob %d corrupted", i)
		}
	}
	var total int64
	for _, b := range blobs {
		total += int64(len(b))
	}
	if repo.LiveBytes() != total {
		t.Errorf("LiveBytes = %d, want %d", repo.LiveBytes(), total)
	}
	if repo.Size() <= total {
		t.Errorf("Size = %d, want > %d (record framing)", repo.Size(), total)
	}
	w, r := repo.Traffic()
	if w != total || r != total {
		t.Errorf("Traffic = %d/%d, want %d/%d", w, r, total, total)
	}
	if repo.Len() != len(blobs) {
		t.Errorf("Len = %d, want %d", repo.Len(), len(blobs))
	}
}

func TestRepositoryContentDedup(t *testing.T) {
	repo, err := NewRepository(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	k1, err := repo.PutContent([]byte("same bytes"))
	if err != nil {
		t.Fatal(err)
	}
	size1 := repo.Size()
	k2, err := repo.PutContent([]byte("same bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("content keys differ for identical blobs")
	}
	if repo.Size() != size1 {
		t.Errorf("duplicate Put grew the log: %d -> %d", size1, repo.Size())
	}
	if repo.DupPuts() != 1 {
		t.Errorf("DupPuts = %d, want 1", repo.DupPuts())
	}
}

func TestRepositoryCloseRemovesEphemeral(t *testing.T) {
	dir := t.TempDir()
	repo, err := NewRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.PutContent([]byte("x")); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("expected 1 repo subdirectory, found %d", len(entries))
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ = os.ReadDir(dir)
	if len(entries) != 0 {
		t.Errorf("repository directory not removed on Close")
	}
}

func TestRepositoryGetMissing(t *testing.T) {
	repo, err := NewRepository(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	repo.PutContent([]byte("abc"))
	if _, err := repo.Get(KeyOf([]byte("never stored"))); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get of missing key: err = %v, want ErrNotFound", err)
	}
}

func TestRepositoryGetOutOfRange(t *testing.T) {
	repo, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	key, err := repo.PutContent([]byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the index entry so it points past the end of the log: Get
	// must fail loudly, not return a short or garbage read.
	repo.mu.Lock()
	e := repo.index[key]
	e.off = repo.off + 100
	repo.index[key] = e
	repo.mu.Unlock()
	if _, err := repo.Get(key); err == nil {
		t.Error("out-of-range Get succeeded")
	} else if errors.Is(err, ErrNotFound) {
		t.Error("out-of-range Get reported ErrNotFound, want explicit range error")
	}
}

func TestRepositoryBadDir(t *testing.T) {
	if _, err := NewRepository("/nonexistent/path/zzz"); err == nil {
		t.Error("repository in a missing directory created")
	}
}

func TestRepositoryReopenPersists(t *testing.T) {
	dir := t.TempDir()
	repo, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k1, _ := repo.PutContent([]byte("survives restart"))
	k2, _ := repo.PutContent(bytes.Repeat([]byte{7}, 4096))
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	repo2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer repo2.Close()
	got, err := repo2.Get(k1)
	if err != nil || string(got) != "survives restart" {
		t.Fatalf("blob 1 after reopen: %q, %v", got, err)
	}
	if got, err := repo2.Get(k2); err != nil || len(got) != 4096 {
		t.Fatalf("blob 2 after reopen: %d bytes, %v", len(got), err)
	}
}

func TestRepositoryRecoversUncommittedTail(t *testing.T) {
	dir := t.TempDir()
	repo, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	committed, _ := repo.PutContent([]byte("committed"))
	if err := repo.Commit(); err != nil {
		t.Fatal(err)
	}
	// Appended after the commit: present only in the log, not the
	// manifest — the crash-recovery tail scan must find it.
	tail, _ := repo.PutContent([]byte("tail record"))
	repo.f.Sync()
	repo.f.Close() // abandon without Commit, simulating a crash

	repo2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer repo2.Close()
	if got, err := repo2.Get(committed); err != nil || string(got) != "committed" {
		t.Fatalf("committed blob: %q, %v", got, err)
	}
	if got, err := repo2.Get(tail); err != nil || string(got) != "tail record" {
		t.Fatalf("tail blob: %q, %v", got, err)
	}
	if n, _ := repo2.Recovered(); n != 1 {
		t.Errorf("Recovered tail records = %d, want 1", n)
	}
}

func TestRepositoryTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	repo, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good, _ := repo.PutContent([]byte("good record"))
	if err := repo.Commit(); err != nil {
		t.Fatal(err)
	}
	torn, _ := repo.PutContent(bytes.Repeat([]byte{0x55}, 1000))
	repo.f.Sync()
	size := repo.off
	repo.f.Close()

	// Tear the final record: chop it mid-blob, as a crash mid-append
	// would.
	logPath := filepath.Join(dir, logName)
	if err := os.Truncate(logPath, size-300); err != nil {
		t.Fatal(err)
	}

	repo2, err := Open(dir)
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	defer repo2.Close()
	if got, err := repo2.Get(good); err != nil || string(got) != "good record" {
		t.Fatalf("intact record after recovery: %q, %v", got, err)
	}
	if _, err := repo2.Get(torn); !errors.Is(err, ErrNotFound) {
		t.Errorf("torn record: err = %v, want ErrNotFound", err)
	}
	if _, trunc := repo2.Recovered(); trunc == 0 {
		t.Error("Recovered reported no truncated bytes")
	}
	// The truncation must be physical: a third open sees a clean log.
	repo2.Close()
	repo3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer repo3.Close()
	if _, trunc := repo3.Recovered(); trunc != 0 {
		t.Errorf("second recovery still truncating (%d bytes)", trunc)
	}
	if !repo3.Has(good) {
		t.Error("intact record lost after second open")
	}
}

func TestRepositoryCorruptRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	repo, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good, _ := repo.PutContent([]byte("keep"))
	bad, _ := repo.PutContent([]byte("will be flipped"))
	badEntry := repo.index[bad]
	repo.f.Sync()
	repo.f.Close() // no Commit: both records live only in the log

	// Flip a blob byte: the CRC check must reject the record during the
	// tail scan.
	logPath := filepath.Join(dir, logName)
	f, err := os.OpenFile(logPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, badEntry.off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	repo2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer repo2.Close()
	if !repo2.Has(good) {
		t.Error("record before the corruption lost")
	}
	if repo2.Has(bad) {
		t.Error("corrupt record survived recovery")
	}
}

func TestRepositoryVersionMismatchResets(t *testing.T) {
	dir := t.TempDir()
	repo, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	repo.PutContent([]byte("old-format data"))
	repo.Close()

	// Stamp an old format version on the log.
	logPath := filepath.Join(dir, logName)
	if _, err := os.Stat(logPath); err != nil {
		t.Fatal(err)
	}
	f, _ := os.OpenFile(logPath, os.O_RDWR, 0)
	f.WriteAt([]byte("NAIMREP\x01"), 0)
	f.Close()

	repo2, err := Open(dir)
	if err != nil {
		t.Fatalf("open with stale version: %v", err)
	}
	defer repo2.Close()
	if repo2.Len() != 0 {
		t.Errorf("stale-version store not reset: %d entries", repo2.Len())
	}
	// And it must be writable again.
	k, err := repo2.PutContent([]byte("new data"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := repo2.Get(k); string(got) != "new data" {
		t.Error("write after reset failed")
	}
}

func TestRepositoryGC(t *testing.T) {
	dir := t.TempDir()
	repo, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	keep, _ := repo.PutContent(bytes.Repeat([]byte{1}, 500))
	drop1, _ := repo.PutContent(bytes.Repeat([]byte{2}, 500))
	drop2, _ := repo.PutContent(bytes.Repeat([]byte{3}, 500))
	before := repo.Size()

	dropped, reclaimed, err := repo.GC(func(k Key) bool { return k == keep })
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
	if reclaimed <= 0 || repo.Size() >= before {
		t.Errorf("no space reclaimed: before %d, after %d", before, repo.Size())
	}
	if got, err := repo.Get(keep); err != nil || len(got) != 500 {
		t.Fatalf("live blob after GC: %d bytes, %v", len(got), err)
	}
	for _, k := range []Key{drop1, drop2} {
		if repo.Has(k) {
			t.Errorf("dead blob %v survived GC", k)
		}
	}
	// GC commits; a reopen sees exactly the compacted state.
	repo.Close()
	repo2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer repo2.Close()
	if repo2.Len() != 1 || !repo2.Has(keep) {
		t.Errorf("post-GC reopen: %d entries, has(keep)=%v", repo2.Len(), repo2.Has(keep))
	}
	if n, trunc := repo2.Recovered(); n != 0 || trunc != 0 {
		t.Errorf("post-GC reopen needed recovery: %d records, %d bytes", n, trunc)
	}
}

func TestRepositoryManifestCorruptFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	repo, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := repo.PutContent([]byte("indexed twice"))
	repo.Close() // commits a manifest

	// Corrupt the manifest CRC; recovery must fall back to a full log
	// scan and still find the blob.
	manPath := filepath.Join(dir, manifestName)
	b, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(manPath, b, 0o666); err != nil {
		t.Fatal(err)
	}

	repo2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer repo2.Close()
	if got, err := repo2.Get(k); err != nil || string(got) != "indexed twice" {
		t.Fatalf("blob after manifest corruption: %q, %v", got, err)
	}
}

func TestRepositoryPutBatch(t *testing.T) {
	dir := t.TempDir()
	repo, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Seed one blob, then batch: a fresh blob, a duplicate of the
	// seeded one, an empty blob, an intra-batch repeat, and a big blob.
	seedKey, err := repo.PutContent([]byte("seeded"))
	if err != nil {
		t.Fatal(err)
	}
	blobs := [][]byte{
		[]byte("fresh"),
		[]byte("seeded"),
		{},
		[]byte("fresh"),
		bytes.Repeat([]byte{0x5C}, 20000),
	}
	keys, appended, err := repo.PutBatch(blobs)
	if err != nil {
		t.Fatal(err)
	}
	if appended != 3 {
		t.Errorf("PutBatch appended %d records, want 3", appended)
	}
	if len(keys) != len(blobs) {
		t.Fatalf("got %d keys for %d blobs", len(keys), len(blobs))
	}
	if keys[1] != seedKey {
		t.Errorf("duplicate blob got a different key")
	}
	if keys[0] != keys[3] {
		t.Errorf("intra-batch repeat got a different key")
	}
	for i, b := range blobs {
		got, err := repo.Get(keys[i])
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, b) {
			t.Errorf("blob %d corrupted after batch put", i)
		}
	}
	// 1 seed + 3 distinct batch blobs; the two duplicates were elided.
	if repo.Len() != 4 {
		t.Errorf("repo holds %d blobs, want 4", repo.Len())
	}
	if d := repo.DupPuts(); d != 2 {
		t.Errorf("DupPuts = %d, want 2", d)
	}

	// Batch-written records survive commit + reopen like Put's do.
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	repo2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer repo2.Close()
	for i, b := range blobs {
		got, err := repo2.Get(keys[i])
		if err != nil {
			t.Fatalf("reopened get %d: %v", i, err)
		}
		if !bytes.Equal(got, b) {
			t.Errorf("blob %d corrupted after reopen", i)
		}
	}
}

func TestRepositoryPutBatchEmptyAndAllDup(t *testing.T) {
	repo, err := NewRepository(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	if keys, n, err := repo.PutBatch(nil); err != nil || len(keys) != 0 || n != 0 {
		t.Fatalf("empty batch: keys=%v appended=%d err=%v", keys, n, err)
	}
	k, _ := repo.PutContent([]byte("x"))
	before := repo.Size()
	keys, n, err := repo.PutBatch([][]byte{[]byte("x"), []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("all-duplicate batch appended %d records", n)
	}
	if keys[0] != k || keys[1] != k {
		t.Errorf("all-duplicate batch returned wrong keys")
	}
	if repo.Size() != before {
		t.Errorf("all-duplicate batch grew the log by %d bytes", repo.Size()-before)
	}
}
