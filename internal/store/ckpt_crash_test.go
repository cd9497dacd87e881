package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Torn-checkpoint crash sweeps: a checkpoint that dies between the
// temp-file write and the rename (fresh writes and v1→v2 migration), or
// mid-page-flush before the meta-slot commit (incremental writes), must
// leave recovery falling back to the previous base plus WAL replay,
// byte-identically.

// sIns commits one routed "ins" transaction on a sharded catalog.
func sIns(t *testing.T, cat *Catalog, table string, v int) {
	t.Helper()
	err := cat.UpdateRouted([]string{table}, func(tx *Tx) error {
		return insInto(tx, table, v)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mkAll commits one all-shard transaction creating every named table.
func mkAll(t *testing.T, cat *Catalog, names []string) {
	t.Helper()
	err := cat.UpdateRouted(nil, func(tx *Tx) error {
		for _, n := range names {
			if err := mkTable(tx, n); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTornCheckpointTempFileIgnored: a crash between the checkpoint's
// temp-file write and its rename leaves a stray dot-temp in the catalog
// directory. Recovery on a 4-shard catalog must ignore the strays (for
// the main and side files alike) and rebuild the committed state from
// the previous base plus the WALs.
func TestTornCheckpointTempFileIgnored(t *testing.T) {
	const nshards = 4
	dir := t.TempDir()
	names := shardNames(nshards)

	cat, wals, err := Open(dir, Options{Shards: nshards, Applier: shardApplier})
	if err != nil {
		t.Fatal(err)
	}
	mkAll(t, cat, names)
	for i, n := range names {
		sIns(t, cat, n, 100+i)
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		sIns(t, cat, n, 200+i) // WAL tail on every shard
	}
	want := dbBytes(t, cat.Snapshot())
	for _, w := range wals {
		w.Close()
	}

	// Simulate the torn checkpoint: half-written temp files for the main
	// file and a side file, killed before their renames.
	for _, base := range []string{"checkpoint.wsd", "checkpoint.wsd.s2"} {
		stray := filepath.Join(dir, "."+base+".tmp-1234")
		if err := os.WriteFile(stray, bytes.Repeat([]byte{0xAB}, 12345), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cat2, wals2, err := Open(dir, Options{Shards: nshards, Applier: shardApplier})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range wals2 {
		defer w.Close()
	}
	if got := dbBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("recovery with stray checkpoint temp files differs from the committed state")
	}
}

// TestCrashMidPageFlushUnsharded: an incremental checkpoint that dies
// after flushing data pages but before the meta-slot commit leaves the
// base at the previous version; reopening replays the un-truncated WAL
// onto it byte-identically, and the next checkpoint succeeds.
func TestCrashMidPageFlushUnsharded(t *testing.T) {
	dir := t.TempDir()
	wsdPath := filepath.Join(dir, "checkpoint.wsd")
	cat, wal, err := open1(dir, putApplier)
	if err != nil {
		t.Fatal(err)
	}
	put(t, cat, "T", 1)
	put(t, cat, "U", 2)
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	baseVer := cat.Pagers()[0].Version()
	put(t, cat, "T", 3)
	put(t, cat, "U", 4)
	want := saveBytes(t, cat.Snapshot())

	cat.Pagers()[0].failBeforeMeta = func() error { return errors.New("injected crash before meta commit") }
	if err := cat.Checkpoint(); err == nil {
		t.Fatal("checkpoint with injected crash reported success")
	}
	if st := cat.DurabilityStats(); st[0].WALTailRecords == 0 {
		t.Fatal("failed checkpoint truncated the WAL — commits would be lost")
	}
	wal.Close() // crash

	// The base on disk must still be the previous checkpoint.
	ps, loaded, err := OpenPageStore(wsdPath, 0, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil || loaded.Version != baseVer {
		t.Fatalf("base after torn checkpoint is at version %v, want %d", loaded, baseVer)
	}
	ps.Close()

	cat2, wal2, err := open1(dir, putApplier)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("recovery after mid-flush crash differs from the committed state")
	}
	// The store heals: the next checkpoint commits and reloads cleanly.
	if err := cat2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got := reloadSnap(t, wsdPath, 16)
	if !bytes.Equal(saveBytes(t, got), want) {
		t.Fatal("checkpoint after recovery differs from the committed state")
	}
}

// TestShardedCrashMidPageFlush: Checkpoint on a 4-shard catalog dies
// mid-flush on one side shard — other side files may already be at the
// new version, the main file is still at the old one, and no WAL was
// truncated. Recovery merges the mixed-epoch files and replays the WALs
// to the exact committed state.
func TestShardedCrashMidPageFlush(t *testing.T) {
	const nshards = 4
	dir := t.TempDir()
	names := shardNames(nshards)

	cat, wals, err := Open(dir, Options{Shards: nshards, Applier: shardApplier})
	if err != nil {
		t.Fatal(err)
	}
	mkAll(t, cat, names)
	for i, n := range names {
		sIns(t, cat, n, 100+i)
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		sIns(t, cat, n, 200+i)
	}
	want := dbBytes(t, cat.Snapshot())

	cat.Pagers()[2].failBeforeMeta = func() error { return errors.New("injected crash before meta commit") }
	if err := cat.Checkpoint(); err == nil {
		t.Fatal("Checkpoint with injected crash reported success")
	}
	for i, st := range cat.DurabilityStats() {
		if st.WALTailRecords == 0 {
			t.Fatalf("failed Checkpoint truncated shard %d's WAL", i)
		}
	}
	for _, w := range wals {
		w.Close() // crash
	}

	cat2, wals2, err := Open(dir, Options{Shards: nshards, Applier: shardApplier})
	if err != nil {
		t.Fatal(err)
	}
	if got := dbBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("recovery after torn Checkpoint differs from the committed state")
	}
	// The store heals: a clean Checkpoint commits every shard and a
	// further reopen still matches.
	if err := cat2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, w := range wals2 {
		w.Close()
	}
	cat3, wals3, err := Open(dir, Options{Shards: nshards, Applier: shardApplier})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range wals3 {
		defer w.Close()
	}
	if got := dbBytes(t, cat3.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("reopen after healing checkpoint differs from the committed state")
	}
}

// TestShardedTornCheckpointEverySideShard: sweep the injected mid-flush
// crash across each side shard in turn (and the main file last) — every
// tear point must recover byte-identically.
func TestShardedTornCheckpointEverySideShard(t *testing.T) {
	const nshards = 4
	for victim := 0; victim < nshards; victim++ {
		victim := victim
		t.Run(fmt.Sprintf("shard%d", victim), func(t *testing.T) {
			dir := t.TempDir()
			names := shardNames(nshards)
			cat, wals, err := Open(dir, Options{Shards: nshards, Applier: shardApplier})
			if err != nil {
				t.Fatal(err)
			}
			mkAll(t, cat, names)
			for i, n := range names {
				sIns(t, cat, n, 10+i)
			}
			if err := cat.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			sIns(t, cat, names[victim], 777)
			sIns(t, cat, names[(victim+1)%nshards], 888)
			want := dbBytes(t, cat.Snapshot())

			cat.Pagers()[victim].failBeforeMeta = func() error { return errors.New("injected crash") }
			if err := cat.Checkpoint(); err == nil {
				t.Fatal("Checkpoint with injected crash reported success")
			}
			for _, w := range wals {
				w.Close()
			}
			cat2, wals2, err := Open(dir, Options{Shards: nshards, Applier: shardApplier})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range wals2 {
				defer w.Close()
			}
			if got := dbBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
				t.Fatal("recovery differs from the committed state")
			}
		})
	}
}
