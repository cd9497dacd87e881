package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsd"
)

// putApplier interprets statement records of the form "put <name> <v>":
// insert integer v into certain relation name, creating the relation
// (schema X) when missing. Deterministic, so statement replay and delta
// replay must converge on the same bytes.
func putApplier(cat *Catalog, rec WALRecord) error {
	return cat.Update(func(tx *Tx) error {
		db := tx.DB()
		for _, stmt := range rec.Stmts {
			tx.Log(stmt)
			var err error
			db, err = applyPut(db, stmt)
			if err != nil {
				return err
			}
		}
		tx.SetDB(db)
		return nil
	})
}

func applyPut(db *wsd.DecompDB, stmt string) (*wsd.DecompDB, error) {
	f := strings.Fields(stmt)
	if len(f) != 3 || f[0] != "put" {
		return nil, fmt.Errorf("putApplier: bad statement %q", stmt)
	}
	v, err := strconv.ParseInt(f[2], 10, 64)
	if err != nil {
		return nil, err
	}
	ri := db.IndexOf(f[1])
	if ri < 0 {
		db = db.WithRelation(f[1], relation.NewSchema("X"), nil)
		ri = db.IndexOf(f[1])
	}
	nr := relation.New(db.Schemas[ri])
	for _, t := range db.Certain[ri].Tuples() {
		nr.Insert(t)
	}
	nr.Insert(relation.Tuple{value.Int(v)})
	return db.WithCertain(ri, nr), nil
}

// put commits one logged "put" transaction.
func put(t *testing.T, cat *Catalog, name string, v int64) {
	t.Helper()
	err := cat.Update(func(tx *Tx) error {
		stmt := fmt.Sprintf("put %s %d", name, v)
		tx.Log(stmt)
		db, err := applyPut(tx.DB(), stmt)
		if err != nil {
			return err
		}
		tx.SetDB(db)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointNoopZeroWrites: a second Catalog.Checkpoint with no
// intervening commit performs zero page writes and leaves the base file
// untouched — the no-op skip.
func TestCheckpointNoopZeroWrites(t *testing.T) {
	dir := t.TempDir()
	wsdPath := filepath.Join(dir, "checkpoint.wsd")
	cat, wal, err := open1(dir, putApplier)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	put(t, cat, "T", 1)
	put(t, cat, "T", 2)
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ps := cat.Pagers()[0]
	before := ps.Stats()
	fi1, err := os.Stat(wsdPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := ps.Stats()
	if after.PagesWritten != before.PagesWritten || after.BytesWritten != before.BytesWritten {
		t.Fatalf("no-op checkpoint wrote %d pages / %d bytes",
			after.PagesWritten-before.PagesWritten, after.BytesWritten-before.BytesWritten)
	}
	if after.NoopSkips != before.NoopSkips+1 {
		t.Fatalf("noop skips %d, want %d", after.NoopSkips, before.NoopSkips+1)
	}
	fi2, err := os.Stat(wsdPath)
	if err != nil {
		t.Fatal(err)
	}
	if fi2.Size() != fi1.Size() || !fi2.ModTime().Equal(fi1.ModTime()) {
		t.Fatal("no-op checkpoint modified the base file")
	}
	// The skip still refreshes durability bookkeeping.
	if v, _ := wal.LastCheckpoint(); v != cat.Snapshot().Version {
		t.Fatalf("no-op checkpoint recorded WAL checkpoint version %d, want %d", v, cat.Snapshot().Version)
	}
}

// TestCheckpointIncrementalBytes: after a full checkpoint of a wide
// catalog, committing to one relation and checkpointing again writes a
// small fraction of the bytes — O(dirty components), not O(catalog).
func TestCheckpointIncrementalBytes(t *testing.T) {
	dir := t.TempDir()
	cat, wal, err := open1(dir, putApplier)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	for i := 0; i < 32; i++ {
		for k := 0; k < 20; k++ {
			put(t, cat, fmt.Sprintf("T%02d", i), int64(i*100+k))
		}
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ps := cat.Pagers()[0]
	full := ps.Stats().BytesWritten

	put(t, cat, "T00", 424242)
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	incr := ps.Stats().BytesWritten - full
	if incr*8 >= full {
		t.Fatalf("incremental checkpoint wrote %d bytes vs %d for the full one — not O(dirty)", incr, full)
	}

	want := saveBytes(t, cat.Snapshot())
	wal.Close()
	cat2, wal2, err := open1(dir, putApplier)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("reopen after incremental checkpoint differs from the committed state")
	}
}

// TestCheckpointMigratesV1: a catalog saved in the v1 JSON format opens
// through Open, keeps serving commits, and its first checkpoint
// rewrites the base in the v2 page format — reopening from the migrated
// file is byte-identical.
func TestCheckpointMigratesV1(t *testing.T) {
	dir := t.TempDir()
	wsdPath := filepath.Join(dir, "checkpoint.wsd")
	db := deltaDB()
	db.Components = []wsd.DBComponent{compOf(db, 1, "A", 10, 11), compOf(db, 2, "B", 20)}
	if err := SaveFile(wsdPath, &Snapshot{Version: 4, DB: db, Views: map[string]string{"V": "select 1"}}); err != nil {
		t.Fatal(err)
	}

	cat, wal, err := open1(dir, putApplier)
	if err != nil {
		t.Fatalf("opening a v1 base: %v", err)
	}
	if cat.Snapshot().Version != 4 {
		t.Fatalf("v1 base loaded at version %d, want 4", cat.Snapshot().Version)
	}
	put(t, cat, "A", 99)
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, cat.Snapshot())
	wal.Close()

	// The base is now a v2 page file, not JSON.
	ps, loaded, err := OpenPageStore(wsdPath, 0, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil {
		t.Fatal("base is still a v1 file after a paged checkpoint")
	}
	ps.Close()

	cat2, wal2, err := open1(dir, putApplier)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("reopen from the migrated page file differs from the pre-migration state")
	}
}

// TestRecoveryReplaysDeltas: recovery applies WAL page deltas without
// re-executing statements — proven by recovering with an applier that
// always fails, which only delta replay can survive.
func TestRecoveryReplaysDeltas(t *testing.T) {
	dir := t.TempDir()
	cat, wal, err := open1(dir, putApplier)
	if err != nil {
		t.Fatal(err)
	}
	put(t, cat, "T", 1)
	put(t, cat, "U", 2)
	put(t, cat, "T", 3)
	want := saveBytes(t, cat.Snapshot())
	wal.Close() // crash: no checkpoint, state lives only in the log

	noStmts := func(cat *Catalog, rec WALRecord) error {
		return fmt.Errorf("statement replay invoked for v%d — delta replay should have handled it", rec.Version)
	}
	cat2, wal2, err := open1(dir, noStmts)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("delta-only recovery differs from the pre-crash state")
	}
}

// TestRecoveryStmtFallbackWithoutDeltas: with delta logging disabled
// (SetLogDeltas(false)), recovery still works through statement replay
// — the compatibility path for logs written by older builds.
func TestRecoveryStmtFallbackWithoutDeltas(t *testing.T) {
	dir := t.TempDir()
	cat, wal, err := open1(dir, putApplier)
	if err != nil {
		t.Fatal(err)
	}
	cat.SetLogDeltas(false)
	put(t, cat, "T", 1)
	put(t, cat, "T", 2)
	want := saveBytes(t, cat.Snapshot())
	wal.Close()

	cat2, wal2, err := open1(dir, putApplier)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("statement-replay recovery differs from the pre-crash state")
	}
}

// TestColdStartPoolSmallerThanCatalog: a catalog whose page file spans
// far more pages than the buffer pool still recovers byte-identically
// and keeps serving reads and commits — chains page in and out on
// demand.
func TestColdStartPoolSmallerThanCatalog(t *testing.T) {
	dir := t.TempDir()
	wsdPath := filepath.Join(dir, "checkpoint.wsd")
	cat, wal, err := open1Pool(dir, putApplier, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		for k := 0; k < 30; k++ {
			put(t, cat, fmt.Sprintf("T%02d", i), int64(i*1000+k))
		}
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	put(t, cat, "T00", -1) // leave a WAL tail too
	want := saveBytes(t, cat.Snapshot())
	wal.Close()

	fi, err := os.Stat(wsdPath)
	if err != nil {
		t.Fatal(err)
	}
	const pool = 4
	if npages := fi.Size() / 8192; npages <= pool*3 {
		t.Fatalf("test catalog spans only %d pages — not meaningfully larger than the %d-page pool", npages, pool)
	}
	cat2, wal2, err := open1Pool(dir, putApplier, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("cold start with a small pool differs from the committed state")
	}
	st := cat2.Pagers()[0].PoolStats()
	if st.Evictions == 0 {
		t.Fatalf("pool smaller than catalog recorded no evictions (stats %+v)", st)
	}
	// And it keeps working as a live catalog.
	put(t, cat2, "T23", 777777)
	if err := cat2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got := reloadSnap(t, wsdPath, 8)
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, cat2.Snapshot())) {
		t.Fatal("post-recovery checkpoint through a small pool differs from the live state")
	}
}

// TestDurabilityStats: the per-shard durability rows report checkpoint
// age, disk bytes, and WAL tail consistent with the catalog's actual
// state.
func TestDurabilityStats(t *testing.T) {
	st := New(nil).DurabilityStats()
	if len(st) != 1 {
		t.Fatalf("1-shard catalog reports %d durability rows, want 1", len(st))
	}
	if st[0].CheckpointAgeSeconds >= 0 {
		t.Fatalf("never-checkpointed catalog reports age %f, want negative", st[0].CheckpointAgeSeconds)
	}
	if st[0].WALTailRecords != 0 || st[0].DiskBytes != 0 {
		t.Fatalf("in-memory catalog reports WAL tail %d, disk bytes %d; want 0, 0", st[0].WALTailRecords, st[0].DiskBytes)
	}

	dir := t.TempDir()
	cat, wal, err := open1(dir, putApplier)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	// Open checkpoints a fresh directory at once (the seed base).
	st = cat.DurabilityStats()
	if st[0].CheckpointAgeSeconds < 0 || st[0].DiskBytes == 0 || st[0].BaseVersion != 1 {
		t.Fatalf("freshly opened catalog: age %f, disk bytes %d, base v%d; want the seed checkpoint at v1",
			st[0].CheckpointAgeSeconds, st[0].DiskBytes, st[0].BaseVersion)
	}
	if st[0].WALTailRecords != 0 {
		t.Fatalf("fresh WAL tail %d, want 0", st[0].WALTailRecords)
	}
	seedBytes := st[0].DiskBytes

	put(t, cat, "T", 1)
	put(t, cat, "T", 2)
	st = cat.DurabilityStats()
	if st[0].WALTailRecords != 2 {
		t.Fatalf("WAL tail %d after 2 commits, want 2", st[0].WALTailRecords)
	}
	if st[0].DiskBytes != seedBytes {
		t.Fatalf("disk bytes %d before the next checkpoint, want the seed's %d", st[0].DiskBytes, seedBytes)
	}

	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st = cat.DurabilityStats()
	if st[0].WALTailRecords != 0 {
		t.Fatalf("WAL tail %d after checkpoint, want 0", st[0].WALTailRecords)
	}
	if st[0].CheckpointAgeSeconds < 0 {
		t.Fatal("checkpoint age still negative after a checkpoint")
	}
	if st[0].DiskBytes == 0 {
		t.Fatal("disk bytes 0 after a checkpoint")
	}
	if st[0].BaseVersion != cat.Snapshot().Version {
		t.Fatalf("base version %d, want %d", st[0].BaseVersion, cat.Snapshot().Version)
	}
	if st[0].Checkpoints == 0 {
		t.Fatal("checkpoint counter not incremented")
	}
}
