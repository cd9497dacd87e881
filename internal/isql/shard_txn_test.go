package isql

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"worldsetdb/internal/store"
)

// crossShardTables picks two table names homing on different shards of
// cat, so a transaction writing both must take the cross-shard
// two-phase commit path.
func crossShardTables(t *testing.T, cat *store.Catalog) (string, string) {
	t.Helper()
	ta := "T0"
	for i := 1; i < 64; i++ {
		tb := fmt.Sprintf("T%d", i)
		if cat.ShardOf(tb) != cat.ShardOf(ta) {
			return ta, tb
		}
	}
	t.Fatal("no two table names home on different shards")
	return "", ""
}

// TestShardedCrashRecoveryByteIdentical is the sharded WAL acceptance
// test at the I-SQL level: a workload over a 4-shard catalog — all-shard
// DDL, routed single-shard commits, and a committed cross-shard
// transaction as the final commit — crashes without checkpointing, and
// merged-epoch recovery over the four segments must restore the catalog
// byte-identical (version included) to the last committed snapshot. An
// uncommitted transaction in flight at crash time leaves no trace.
func TestShardedCrashRecoveryByteIdentical(t *testing.T) {
	const nshards = 4
	dir := t.TempDir()

	cat, wals, err := Open(dir, store.Options{Shards: nshards})
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := crossShardTables(t, cat)
	s := FromCatalog(cat)
	mustScript(t, s,
		fmt.Sprintf("create table %s (A);", ta),
		fmt.Sprintf("create table %s (A);", tb),
		fmt.Sprintf("insert into %s values (1), (2);", ta),
		fmt.Sprintf("insert into %s values (10);", tb),
		"begin;",
		fmt.Sprintf("insert into %s values (777);", ta),
		fmt.Sprintf("insert into %s values (888);", tb),
		"commit;",
	)
	want := rawSnapBytes(t, cat.Snapshot())

	// An in-flight transaction at crash time: staged, never committed.
	mustScript(t, s, "begin;", fmt.Sprintf("delete from %s;", ta))
	for _, w := range wals {
		w.Close() // crash: no checkpoint, open transaction dropped
	}

	cat2, wals2, err := Open(dir, store.Options{Shards: nshards})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range wals2 {
			w.Close()
		}
	}()
	if got := rawSnapBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatalf("recovered catalog differs from last committed snapshot\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// And the recovered catalog serves, with the cross-shard commit
	// visible on both shards.
	s2 := FromCatalog(cat2)
	if got := singleAnswer(t, s2, fmt.Sprintf("select certain A from %s;", ta)); got.Len() != 3 {
		t.Fatalf("recovered %s has %d certain rows, want 3", ta, got.Len())
	}
	if got := singleAnswer(t, s2, fmt.Sprintf("select certain A from %s;", tb)); got.Len() != 2 {
		t.Fatalf("recovered %s has %d certain rows, want 2", tb, got.Len())
	}
}

// TestShardedCrashTornMarkerRollsBack pins cross-shard atomicity under
// the worst crash point: the stage records of a cross-shard transaction
// reached every participant segment, but the crash tore off the
// coordinator's commit marker. Recovery must discard the transaction on
// ALL participants — neither shard may show a torn half — restoring the
// catalog byte-identical to the state before the transaction began.
func TestShardedCrashTornMarkerRollsBack(t *testing.T) {
	const nshards = 4
	dir := t.TempDir()

	cat, wals, err := Open(dir, store.Options{Shards: nshards})
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := crossShardTables(t, cat)
	s := FromCatalog(cat)
	mustScript(t, s,
		fmt.Sprintf("create table %s (A);", ta),
		fmt.Sprintf("create table %s (A);", tb),
		fmt.Sprintf("insert into %s values (1), (2);", ta),
		fmt.Sprintf("insert into %s values (10);", tb),
	)
	want := rawSnapBytes(t, cat.Snapshot())
	mustScript(t, s,
		"begin;",
		fmt.Sprintf("insert into %s values (777);", ta),
		fmt.Sprintf("insert into %s values (888);", tb),
		"commit;",
	)
	for _, w := range wals {
		w.Close()
	}

	// Tear the marker off the coordinator segment (the lowest
	// participant shard), leaving the stage records on both segments.
	co := cat.ShardOf(ta)
	if o := cat.ShardOf(tb); o < co {
		co = o
	}
	seg := store.SegmentPath(dir, co)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	trim := bytes.LastIndexByte(bytes.TrimSuffix(data, []byte("\n")), '\n')
	if trim < 0 {
		t.Fatalf("coordinator segment %s has no line to tear", seg)
	}
	if err := os.WriteFile(seg, data[:trim+1], 0o644); err != nil {
		t.Fatal(err)
	}

	cat2, wals2, err := Open(dir, store.Options{Shards: nshards})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range wals2 {
			w.Close()
		}
	}()
	if got := rawSnapBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatalf("unmarked cross-shard commit not rolled back on every shard\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	s2 := FromCatalog(cat2)
	if got := singleAnswer(t, s2, fmt.Sprintf("select certain A from %s;", ta)); got.Len() != 2 {
		t.Fatalf("%s has %d certain rows after rollback, want 2 (777 must not survive)", ta, got.Len())
	}
	if got := singleAnswer(t, s2, fmt.Sprintf("select certain A from %s;", tb)); got.Len() != 1 {
		t.Fatalf("%s has %d certain rows after rollback, want 1 (888 must not survive)", tb, got.Len())
	}
}

// TestReopenAtAnyShardCount is the I-SQL-level reshard rule: a catalog
// checkpointed cleanly at 4 shards — tables homed on every shard, one of
// them repaired into components — reopens byte-identically at 1, 2 and
// 4 shards, so no relation comes back missing rows.
func TestReopenAtAnyShardCount(t *testing.T) {
	const nshards = 4
	dir := t.TempDir()
	cat, wals, err := Open(dir, store.Options{Shards: nshards})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, nshards)
	for i, found := 0, 0; found < nshards; i++ {
		name := fmt.Sprintf("R%d", i)
		if si := cat.ShardOf(name); names[si] == "" {
			names[si] = name
			found++
		}
	}
	s := FromCatalog(cat)
	for i, name := range names {
		mustScript(t, s,
			fmt.Sprintf("create table %s (K, V);", name),
			fmt.Sprintf("insert into %s values (1, %d), (1, %d), (2, %d);", name, 10*i, 10*i+1, 10*i+2),
		)
	}
	mustScript(t, s, fmt.Sprintf("create table Clean as select * from %s repair by key K;", names[3]))
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := rawSnapBytes(t, cat.Snapshot())
	for _, w := range wals {
		w.Close()
	}

	for _, n := range []int{1, 2, nshards} {
		cdir := t.TempDir()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cdir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		cat2, wals2, err := Open(cdir, store.Options{Shards: n})
		if err != nil {
			t.Fatalf("reopen at %d shards: %v", n, err)
		}
		if got := rawSnapBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatalf("reopen at %d shards differs from the 4-shard checkpoint\n--- got ---\n%s\n--- want ---\n%s", n, got, want)
		}
		s2 := FromCatalog(cat2)
		for _, name := range names {
			if got := singleAnswer(t, s2, fmt.Sprintf("select certain V from %s;", name)); got.Len() != 3 {
				t.Fatalf("reopen at %d shards: %s has %d certain rows, want 3", n, name, got.Len())
			}
		}
		for _, w := range wals2 {
			w.Close()
		}
	}
}
