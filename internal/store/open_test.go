package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/wsd"
)

// closeCat closes a durable catalog's segments and page files (the
// state a clean shutdown or a crash leaves on disk is the same).
func closeCat(cat *Catalog, wals []*WAL) {
	for _, w := range wals {
		w.Close()
	}
	for _, ps := range cat.Pagers() {
		ps.Close()
	}
}

// shardedSeed returns a seed catalog with one relation homed on each of
// nshards shards, each carrying a 2-alternative component — objects for
// every shard's page file.
func shardedSeed(nshards int) func() (*Catalog, error) {
	return func() (*Catalog, error) {
		names := shardNames(nshards)
		schemas := make([]relation.Schema, len(names))
		for i := range schemas {
			schemas[i] = relation.NewSchema("X")
		}
		db := wsd.NewDecompDB(names, schemas)
		for i, name := range names {
			db.Components = append(db.Components, compOf(db, uint64(i+1), name, int64(10*i), int64(10*i+1)))
		}
		return New(db), nil
	}
}

// TestReopenCheckpointAtAnyShardCount: a paged catalog checkpointed at
// 4 shards spreads its objects over checkpoint.wsd and three side
// files. Reopening it at 1, 2 or 4 shards must merge every file and
// recover byte-identically through Save; a checkpoint at the lower
// count then retires the side files it no longer writes, and the
// directory reopens at 4 shards unchanged.
func TestReopenCheckpointAtAnyShardCount(t *testing.T) {
	const nshards = 4
	dir := t.TempDir()
	names := shardNames(nshards)
	cat, wals, err := Open(dir, Options{Shards: nshards, Applier: shardApplier, Seed: shardedSeed(nshards)})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		sIns(t, cat, n, 100+i)
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, cat.Snapshot())
	closeCat(cat, wals)
	for i := 1; i < nshards; i++ {
		if _, err := os.Stat(shardCkptPath(filepath.Join(dir, "checkpoint.wsd"), i)); err != nil {
			t.Fatalf("4-shard checkpoint wrote no side file for shard %d: %v", i, err)
		}
	}

	for _, n := range []int{1, 2, 4} {
		cdir := t.TempDir()
		copyDir(t, dir, cdir)
		cat2, wals2, err := Open(cdir, Options{Shards: n, Applier: shardApplier})
		if err != nil {
			t.Fatalf("reopen at %d shards: %v", n, err)
		}
		if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatalf("reopen at %d shards differs from the 4-shard checkpoint\n--- got ---\n%s\n--- want ---\n%s", n, got, want)
		}
		// Commit and checkpoint at n, then return to 4 shards.
		sIns(t, cat2, names[3], 999)
		if err := cat2.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		want2 := saveBytes(t, cat2.Snapshot())
		closeCat(cat2, wals2)
		for i := n; i < nshards; i++ {
			if _, err := os.Stat(shardCkptPath(filepath.Join(cdir, "checkpoint.wsd"), i)); !os.IsNotExist(err) {
				t.Fatalf("checkpoint at %d shards left the stale side file of shard %d (%v)", n, i, err)
			}
		}
		cat3, wals3, err := Open(cdir, Options{Shards: nshards, Applier: shardApplier})
		if err != nil {
			t.Fatal(err)
		}
		if got := saveBytes(t, cat3.Snapshot()); !bytes.Equal(got, want2) {
			t.Fatalf("checkpoint at %d shards does not reopen at 4 byte-identically", n)
		}
		closeCat(cat3, wals3)
	}
}

// TestOpenRefusesNewerRecordsBeyondShardCount: commits logged at 4
// shards and never checkpointed (a crash) live partly in segments a
// 1-shard open does not replay. Open must refuse rather than drop them,
// and the directory still recovers at the count that wrote it.
func TestOpenRefusesNewerRecordsBeyondShardCount(t *testing.T) {
	const nshards = 4
	dir := t.TempDir()
	names := shardNames(nshards)
	cat, wals, err := Open(dir, Options{Shards: nshards, Applier: shardApplier})
	if err != nil {
		t.Fatal(err)
	}
	mkAll(t, cat, names)
	for i, n := range names {
		sIns(t, cat, n, i)
	}
	want := saveBytes(t, cat.Snapshot())
	closeCat(cat, wals)

	if _, _, err := Open(dir, Options{Shards: 1, Applier: shardApplier}); err == nil ||
		!strings.Contains(err.Error(), "reopen with at least") {
		t.Fatalf("1-shard open over 4-shard log tails: err = %v, want a refusal", err)
	}
	cat2, wals2, err := Open(dir, Options{Shards: nshards, Applier: shardApplier})
	if err != nil {
		t.Fatal(err)
	}
	defer closeCat(cat2, wals2)
	if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("recovery at the original shard count differs after a refused open")
	}
}

// TestWALGapFailsAtOneShard pins the single-log strictness: a 1-shard
// segment has no sibling to tear and no cross-shard commit to roll back,
// so a missing record fails recovery with a WAL gap error — it never
// falls back to replaying the surviving statements.
func TestWALGapFailsAtOneShard(t *testing.T) {
	dir := t.TempDir()
	cat, wal, err := open1(dir, putApplier)
	if err != nil {
		t.Fatal(err)
	}
	put(t, cat, "T", 1)
	put(t, cat, "T", 2)
	put(t, cat, "T", 3)
	closeCat(cat, []*WAL{wal})

	seg := SegmentPath(dir, 0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) != 4 || lines[3] != "" {
		t.Fatalf("segment holds %d lines, want 3 records", len(lines)-1)
	}
	if err := os.WriteFile(seg, []byte(lines[0]+lines[2]), 0o644); err != nil {
		t.Fatal(err)
	}
	replayed := false
	applier := func(cat *Catalog, rec WALRecord) error {
		replayed = true
		return putApplier(cat, rec)
	}
	_, _, err = open1(dir, applier)
	if err == nil || !strings.Contains(err.Error(), "store: WAL gap") {
		t.Fatalf("open over a gapped 1-shard log: err = %v, want a WAL gap error", err)
	}
	if replayed {
		t.Fatal("a gapped 1-shard log was replayed by statement")
	}
}

// TestOpenMigratesLegacyLayout: a directory in the single-log layout —
// checkpoint.wsd (page file or v1 JSON) plus a non-empty wal.log —
// recovers byte-identically, and the first open adopts wal.log as
// segment 0.
func TestOpenMigratesLegacyLayout(t *testing.T) {
	for _, base := range []string{"page", "v1"} {
		t.Run(base, func(t *testing.T) {
			src := t.TempDir()
			cat, wal, err := open1(src, putApplier)
			if err != nil {
				t.Fatal(err)
			}
			put(t, cat, "T", 1)
			put(t, cat, "U", 2)
			if err := cat.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			mid := cat.Snapshot()
			put(t, cat, "T", 3)
			put(t, cat, "U", 4)
			want := saveBytes(t, cat.Snapshot())
			closeCat(cat, []*WAL{wal})

			dir := t.TempDir()
			ckpt := filepath.Join(dir, "checkpoint.wsd")
			if base == "page" {
				data, err := os.ReadFile(filepath.Join(src, "checkpoint.wsd"))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(ckpt, data, 0o644); err != nil {
					t.Fatal(err)
				}
			} else if err := SaveFile(ckpt, mid); err != nil {
				t.Fatal(err)
			}
			tail, err := os.ReadFile(SegmentPath(src, 0))
			if err != nil {
				t.Fatal(err)
			}
			if len(tail) == 0 {
				t.Fatal("test setup: empty WAL tail")
			}
			legacy := filepath.Join(dir, "wal.log")
			if err := os.WriteFile(legacy, tail, 0o644); err != nil {
				t.Fatal(err)
			}

			cat2, wal2, err := open1(dir, putApplier)
			if err != nil {
				t.Fatal(err)
			}
			defer closeCat(cat2, []*WAL{wal2})
			if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
				t.Fatalf("legacy %s-base layout recovered differently\n--- got ---\n%s\n--- want ---\n%s", base, got, want)
			}
			if _, err := os.Stat(legacy); !os.IsNotExist(err) {
				t.Fatalf("wal.log still present after the first open (%v)", err)
			}
			if got := wal2.TailRecords(); got != 2 {
				t.Fatalf("adopted segment 0 holds %d records, want the 2-record tail", got)
			}
		})
	}
}

// TestCheckpointFailsOnStaleSideFileRemoveError: a stale side file that
// cannot be deleted would be merged back by the next recovery, so the
// checkpoint must fail — and keep the WAL tail that heals the merge —
// instead of ignoring the error.
func TestCheckpointFailsOnStaleSideFileRemoveError(t *testing.T) {
	dir := t.TempDir()
	cat, wal, err := open1(dir, putApplier)
	if err != nil {
		t.Fatal(err)
	}
	defer closeCat(cat, []*WAL{wal})
	put(t, cat, "T", 1)
	// A non-empty directory where the shard 1 side file would be: it
	// stats fine but cannot be removed.
	stale := shardCkptPath(filepath.Join(dir, "checkpoint.wsd"), 1)
	if err := os.MkdirAll(filepath.Join(stale, "pinned"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cat.Checkpoint(); err == nil || !strings.Contains(err.Error(), "stale shard checkpoint") {
		t.Fatalf("checkpoint over an undeletable stale side file: err = %v, want failure", err)
	}
	if got := wal.TailRecords(); got != 1 {
		t.Fatalf("failed checkpoint left %d WAL records, want the 1-record tail", got)
	}
	if err := os.RemoveAll(stale); err != nil {
		t.Fatal(err)
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}
