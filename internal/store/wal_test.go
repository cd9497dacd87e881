package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsd"
)

// addRelApplier interprets WAL statement records of the form "T<name>"
// by adding an empty relation of that name — a store-level stand-in for
// the I-SQL applier, so the log machinery is testable without parsing.
func addRelApplier(cat *Catalog, rec WALRecord) error {
	return cat.Update(func(tx *Tx) error {
		db := tx.DB()
		for _, stmt := range rec.Stmts {
			tx.Log(stmt)
			db = db.WithRelation(stmt, relation.NewSchema("X"), nil)
		}
		tx.SetDB(db)
		return nil
	})
}

// addRel commits one logged relation-adding transaction.
func addRel(t *testing.T, cat *Catalog, name string) {
	t.Helper()
	err := cat.Update(func(tx *Tx) error {
		tx.Log(name)
		tx.SetDB(tx.DB().WithRelation(name, relation.NewSchema("X"), nil))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// open1 opens the 1-shard durable catalog in dir and returns its only
// WAL segment.
func open1(dir string, applier Applier) (*Catalog, *WAL, error) {
	return open1Pool(dir, applier, 0)
}

// open1Pool is open1 with an explicit buffer-pool capacity.
func open1Pool(dir string, applier Applier, poolPages int) (*Catalog, *WAL, error) {
	cat, wals, err := Open(dir, Options{PoolPages: poolPages, Applier: applier})
	if err != nil {
		return nil, nil, err
	}
	return cat, wals[0], nil
}

// shardedCat returns an in-memory catalog over db with nshards shards.
func shardedCat(db *wsd.DecompDB, nshards int) *Catalog {
	c := New(db)
	c.Reshard(nshards)
	return c
}

func saveBytes(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStagedCommitPublishesOnce: a multi-statement staged transaction
// stays invisible until Commit, then appears as exactly one version.
func TestStagedCommitPublishesOnce(t *testing.T) {
	c := New(nil)
	base := c.Snapshot()
	txn := c.Begin()
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("T%d", i)
		err := txn.Update(func(tx *Tx) error {
			tx.SetDB(tx.DB().WithRelation(name, relation.NewSchema("X"), nil))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Snapshot(); got != base {
			t.Fatalf("staged statement %d is visible before commit", i)
		}
		if txn.Snapshot().DB.IndexOf(name) < 0 {
			t.Fatalf("staging snapshot misses its own statement %d", i)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	final := c.Snapshot()
	if final.Version != base.Version+1 {
		t.Fatalf("commit published version %d, want %d (one version for the whole batch)", final.Version, base.Version+1)
	}
	if len(final.DB.Names) != 3 {
		t.Fatalf("committed catalog has %d relations, want 3", len(final.DB.Names))
	}
}

// TestStagedRollbackInvisible: rollback leaves the catalog untouched.
func TestStagedRollbackInvisible(t *testing.T) {
	c := New(nil)
	before := saveBytes(t, c.Snapshot())
	txn := c.Begin()
	if err := txn.Update(func(tx *Tx) error {
		tx.SetDB(tx.DB().WithRelation("Junk", relation.NewSchema("X"), nil))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	txn.Rollback()
	if got := saveBytes(t, c.Snapshot()); !bytes.Equal(got, before) {
		t.Fatal("rollback changed the catalog")
	}
	if err := txn.Commit(); !errors.Is(err, errTxnDone) {
		t.Fatalf("commit after rollback: %v, want errTxnDone", err)
	}
}

// TestStagedConflict: first committer wins; the loser reports
// *ConflictError and publishes nothing.
func TestStagedConflict(t *testing.T) {
	c := New(nil)
	txn := c.Begin()
	if err := txn.Update(func(tx *Tx) error {
		tx.SetDB(tx.DB().WithRelation("A", relation.NewSchema("X"), nil))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	addRel(t, c, "B") // interleaved auto-commit writer
	err := txn.Commit()
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ConflictError, got %v", err)
	}
	final := c.Snapshot()
	if final.DB.IndexOf("A") >= 0 {
		t.Fatal("conflicting transaction leaked state")
	}
	if final.DB.IndexOf("B") < 0 {
		t.Fatal("winning writer lost state")
	}
}

// TestStagedReadOnlyCommit: a transaction that staged nothing commits
// without bumping the version even when the catalog moved meanwhile.
func TestStagedReadOnlyCommit(t *testing.T) {
	c := New(nil)
	txn := c.Begin()
	_ = txn.Snapshot()
	addRel(t, c, "B")
	if err := txn.Commit(); err != nil {
		t.Fatalf("read-only commit: %v", err)
	}
}

// TestWALRoundTrip: commits append records; reopening replays them into
// an identical catalog, byte for byte through Save.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()

	cat, wal, err := open1(dir, addRelApplier)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		addRel(t, cat, fmt.Sprintf("T%d", i))
	}
	want := saveBytes(t, cat.Snapshot())
	wal.Close() // crash: no checkpoint was ever written

	cat2, wal2, err := open1(dir, addRelApplier)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatalf("recovered catalog differs\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if cat2.Snapshot().Version != 6 {
		t.Fatalf("recovered version %d, want 6", cat2.Snapshot().Version)
	}
}

// TestWALTornTailTruncated: a half-written final record (crash
// mid-append) is detected and dropped; recovery stops at the last
// intact record and appending resumes cleanly.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	walPath := SegmentPath(dir, 0)

	cat, wal, err := open1(dir, addRelApplier)
	if err != nil {
		t.Fatal(err)
	}
	addRel(t, cat, "T0")
	addRel(t, cat, "T1")
	want := saveBytes(t, cat.Snapshot())
	wal.Close()

	// Simulate a torn append: half a record, no newline.
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":3,"stmts":["T2"],"cr`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cat2, wal2, err := open1(dir, addRelApplier)
	if err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("torn tail changed the recovered catalog")
	}
	// The file was truncated back to the intact prefix; a new commit
	// appends a valid record after it.
	addRel(t, cat2, "T2")
	want2 := saveBytes(t, cat2.Snapshot())
	wal2.Close()
	cat3, wal3, err := open1(dir, addRelApplier)
	if err != nil {
		t.Fatal(err)
	}
	defer wal3.Close()
	if got := saveBytes(t, cat3.Snapshot()); !bytes.Equal(got, want2) {
		t.Fatal("recovery after torn-tail truncation + append differs")
	}
}

// TestWALCorruptRecordStopsReplay: a flipped byte fails the CRC; replay
// stops at the last good record rather than applying garbage.
func TestWALCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	walPath := SegmentPath(dir, 0)

	cat, wal, err := open1(dir, addRelApplier)
	if err != nil {
		t.Fatal(err)
	}
	addRel(t, cat, "T0")
	good := saveBytes(t, cat.Snapshot())
	addRel(t, cat, "T1")
	wal.Close()

	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the second record's statement text.
	mangled := strings.Replace(string(data), `"T1"`, `"TX"`, 1)
	if mangled == string(data) {
		t.Fatal("test setup: record not found")
	}
	if err := os.WriteFile(walPath, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	cat2, wal2, err := open1(dir, addRelApplier)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, good) {
		t.Fatal("replay did not stop at the corrupt record")
	}
}

// TestWALCheckpointTruncates: checkpointing writes the snapshot,
// truncates the log, and recovery uses checkpoint + tail.
func TestWALCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	walPath := SegmentPath(dir, 0)

	cat, wal, err := open1(dir, addRelApplier)
	if err != nil {
		t.Fatal(err)
	}
	addRel(t, cat, "T0")
	addRel(t, cat, "T1")
	if wal.Appended() != 2 {
		t.Fatalf("appended = %d, want 2", wal.Appended())
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if wal.Appended() != 0 {
		t.Fatalf("appended after checkpoint = %d, want 0", wal.Appended())
	}
	if info, err := os.Stat(walPath); err != nil || info.Size() != 0 {
		t.Fatalf("WAL not truncated after checkpoint: %v, %d bytes", err, info.Size())
	}
	addRel(t, cat, "T2") // tail after the checkpoint
	want := saveBytes(t, cat.Snapshot())
	wal.Close()

	cat2, wal2, err := open1(dir, addRelApplier)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("checkpoint + tail recovery differs from pre-crash state")
	}
}

// TestWALStaleRecordsSkipped: records at or below the checkpoint
// version (a crash between checkpoint save and log truncate) are
// skipped on replay instead of being applied twice.
func TestWALStaleRecordsSkipped(t *testing.T) {
	dir := t.TempDir()
	wsdPath := filepath.Join(dir, "checkpoint.wsd")

	cat, wal, err := open1(dir, addRelApplier)
	if err != nil {
		t.Fatal(err)
	}
	addRel(t, cat, "T0")
	// Checkpoint WITHOUT truncating the log: exactly the crash window.
	if err := SaveFile(wsdPath, cat.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, cat.Snapshot())
	wal.Close()

	cat2, wal2, err := open1(dir, addRelApplier)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("stale record was replayed on top of the checkpoint that already contains it")
	}
}

// TestWALConcurrentWriters: logged commits from many goroutines recover
// to the same catalog (run under -race in CI).
func TestWALConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	cat, wal, err := open1(dir, addRelApplier)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = cat.Update(func(tx *Tx) error {
				name := fmt.Sprintf("W%d", g)
				tx.Log(name)
				tx.SetDB(tx.DB().WithRelation(name, relation.NewSchema("X"), nil))
				return nil
			})
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	want := saveBytes(t, cat.Snapshot())
	wal.Close()
	cat2, wal2, err := open1(dir, addRelApplier)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("concurrent-writer recovery differs")
	}
}

// TestSaveFileAtomic: SaveFile goes through a temp file + rename — the
// destination always holds either the old or the new complete document,
// and no temp files are left behind.
func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.wsd")
	c1 := New(nil)
	if err := SaveFile(path, c1.Snapshot()); err != nil {
		t.Fatal(err)
	}
	c2 := FromComplete([]string{"T"}, []*relation.Relation{
		relation.FromRows(relation.NewSchema("A"), relation.Tuple{value.Int(1)})})
	if err := SaveFile(path, c2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Snapshot().DB.IndexOf("T") < 0 {
		t.Fatal("overwrite lost the new catalog")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("temp files left behind: %v", names)
	}
}
