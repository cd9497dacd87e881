package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
)

// gatedBatchLogger is a shard log segment whose AppendBatch blocks
// until released, so tests can hold a flush leader mid-fsync while more
// committers enqueue — making batch formation deterministic.
type gatedBatchLogger struct {
	mu      sync.Mutex
	batches [][]WALRecord
	entered chan struct{} // signaled when AppendBatch is entered
	release chan struct{} // receives one token per AppendBatch allowed out
	fail    error         // when set, AppendBatch returns it (after the gate)
}

func newGatedBatchLogger() *gatedBatchLogger {
	return &gatedBatchLogger{entered: make(chan struct{}, 64), release: make(chan struct{}, 64)}
}

func (g *gatedBatchLogger) AppendBatch(recs []WALRecord) error {
	g.entered <- struct{}{}
	<-g.release
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.fail != nil {
		return g.fail
	}
	cp := append([]WALRecord{}, recs...)
	g.batches = append(g.batches, cp)
	return nil
}

func (g *gatedBatchLogger) snapshotBatches() [][]WALRecord {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([][]WALRecord{}, g.batches...)
}

func (g *gatedBatchLogger) setFail(err error) {
	g.mu.Lock()
	g.fail = err
	g.mu.Unlock()
}

// gatedCatalog returns a 1-shard catalog holding the empty relation T,
// with g as shard 0's log segment.
func gatedCatalog(g *gatedBatchLogger) *Catalog {
	c := FromComplete([]string{"T"}, []*relation.Relation{relation.New(relation.NewSchema("X"))})
	c.shards[0].log = g
	return c
}

// commitInsAsync starts one logged routed insert of v into T — a
// single-shard commit that joins shard 0's group-commit queue — and
// returns its error channel.
func commitInsAsync(c *Catalog, v int) chan error {
	done := make(chan error, 1)
	go func() {
		done <- c.UpdateRouted([]string{"T"}, func(tx *Tx) error { return insInto(tx, "T", v) })
	}()
	return done
}

// waitPending polls until n commits are queued behind the in-flight
// flush.
func waitPending(t *testing.T, c *Catalog, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.PendingCommits() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d commits enqueued", c.PendingCommits(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitBatches: committers arriving while the leader is
// inside its fsync coalesce into the leader's next batch — one
// AppendBatch, one fsync, many records.
func TestGroupCommitBatches(t *testing.T) {
	g := newGatedBatchLogger()
	c := gatedCatalog(g)

	first := commitInsAsync(c, 0)
	<-g.entered // leader is mid-"fsync" with batch [T0]

	const waiters = 4
	var rest []chan error
	for i := 0; i < waiters; i++ {
		rest = append(rest, commitInsAsync(c, 1+i))
	}
	waitPending(t, c, waiters)

	g.release <- struct{}{} // let batch 1 (the lone leader record) finish
	if err := <-first; err != nil {
		t.Fatalf("leader commit: %v", err)
	}
	<-g.entered // leader drained the queue into batch 2
	g.release <- struct{}{}
	for i, done := range rest {
		if err := <-done; err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}

	batches := g.snapshotBatches()
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2 (leader + coalesced waiters): %v", len(batches), batches)
	}
	if len(batches[0]) != 1 || len(batches[1]) != waiters {
		t.Fatalf("batch sizes %d,%d; want 1,%d", len(batches[0]), len(batches[1]), waiters)
	}
	// Versions are contiguous across batches and published in order.
	want := uint64(2)
	for _, b := range batches {
		for _, rec := range b {
			if rec.Version != want {
				t.Fatalf("record version %d, want %d", rec.Version, want)
			}
			want++
		}
	}
	if got := c.Snapshot().Version; got != uint64(1+1+waiters) {
		t.Fatalf("final version %d, want %d", got, 1+1+waiters)
	}
	if c.PendingCommits() != 0 {
		t.Fatalf("queue not drained: %d pending", c.PendingCommits())
	}
}

// TestGroupCommitFailureAborts: a failing batch write publishes
// nothing, rolls the writer head back, and the next commit succeeds
// with the reused version number.
func TestGroupCommitFailureAborts(t *testing.T) {
	g := newGatedBatchLogger()
	boom := errors.New("disk on fire")
	c := gatedCatalog(g)
	g.setFail(boom)
	g.release <- struct{}{}
	err := c.UpdateRouted([]string{"T"}, func(tx *Tx) error { return insInto(tx, "T", 0) })
	<-g.entered
	if !errors.Is(err, boom) {
		t.Fatalf("commit error = %v, want wrapped %v", err, boom)
	}
	if got := c.Snapshot().Version; got != 1 {
		t.Fatalf("failed commit published version %d", got)
	}
	// The next commit re-bases on the durable version and succeeds.
	g.setFail(nil)
	g.release <- struct{}{}
	if err := <-commitInsAsync(c, 1); err != nil {
		t.Fatalf("commit after failure: %v", err)
	}
	<-g.entered
	snap := c.Snapshot()
	if got := snap.DB.Certain[0].Tuples(); snap.Version != 2 || len(got) != 1 || got[0][0] != value.Int(1) {
		t.Fatalf("post-failure catalog wrong: v%d, T = %v", snap.Version, got)
	}
	batches := g.snapshotBatches()
	if len(batches) != 1 || batches[0][0].Version != 2 {
		t.Fatalf("logged batches after failure: %v", batches)
	}
}

// TestGroupCommitConcurrentWriters: heavy concurrent commit traffic
// through a real WAL (group commit live) recovers byte-identically and
// never fsyncs more than once per commit (run under -race in CI).
func TestGroupCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	cat, wal, err := open1(dir, shardApplier)
	if err != nil {
		t.Fatal(err)
	}
	mkAll(t, cat, []string{"T"})
	const writers = 8
	const commitsPer = 20
	var wg sync.WaitGroup
	errs := make([]error, writers*commitsPer)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < commitsPer; i++ {
				v := g*commitsPer + i
				errs[v] = cat.UpdateRouted([]string{"T"}, func(tx *Tx) error { return insInto(tx, "T", v) })
			}
		}(g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	commits := uint64(writers * commitsPer)
	if got := cat.Snapshot().Version; got != commits+2 { // seed + create + inserts
		t.Fatalf("final version %d, want %d", got, commits+2)
	}
	if s := wal.Syncs() - 1; s > commits { // the create's own fsync aside

		t.Fatalf("%d fsyncs for %d commits: group commit never batched", s, commits)
	} else {
		t.Logf("%d commits, %d fsyncs (amortization %.1fx)", commits, s, float64(commits)/float64(s))
	}
	want := saveBytes(t, cat.Snapshot())
	wal.Close()
	cat2, wal2, err := open1(dir, shardApplier)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("group-committed catalog does not recover byte-identically")
	}
}

// TestGroupCommitCheckpointDrains: Checkpoint must wait for in-flight
// group commits, so the truncated log never orphans a commit that was
// acknowledged (or is about to be).
func TestGroupCommitCheckpointDrains(t *testing.T) {
	dir := t.TempDir()
	cat, wal, err := open1(dir, shardApplier)
	if err != nil {
		t.Fatal(err)
	}
	mkAll(t, cat, []string{"T"})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				sIns(t, cat, "T", g*10+i)
			}
		}(g)
	}
	// Checkpoint racing the writers: every one must land either in the
	// checkpoint or in the log tail.
	for i := 0; i < 5; i++ {
		if err := cat.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	want := saveBytes(t, cat.Snapshot())
	wal.Close()
	cat2, wal2, err := open1(dir, shardApplier)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("checkpoint during group commit lost a commit")
	}
}

// TestGroupBatchTornMidBatchTruncated: a crash anywhere inside a
// multi-record batch append — the kill -9 mid-batch case — recovers
// byte-identically to the intact record prefix, for every cut point.
func TestGroupBatchTornMidBatchTruncated(t *testing.T) {
	dir := t.TempDir()
	walPath := SegmentPath(dir, 0)
	wal, _, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	recs := make([]WALRecord, n)
	for i := range recs {
		recs[i] = WALRecord{Version: uint64(i + 2), Stmts: []string{fmt.Sprintf("T%d", i)}}
	}
	if err := wal.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	wal.Close()
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Reference states: the catalog after replaying the first k records.
	wants := make([][]byte, n+1)
	for k := 0; k <= n; k++ {
		ref := New(nil)
		for _, rec := range recs[:k] {
			if err := addRelApplier(ref, rec); err != nil {
				t.Fatal(err)
			}
		}
		wants[k] = saveBytes(t, ref.Snapshot())
	}
	// Line boundaries of the batch records.
	var ends []int
	for i, b := range full {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}
	if len(ends) != n {
		t.Fatalf("batch wrote %d lines, want %d", len(ends), n)
	}
	for cut := 1; cut <= len(full); cut++ {
		// intact = number of whole records before the cut.
		intact := 0
		for intact < n && ends[intact] <= cut {
			intact++
		}
		caseDir := t.TempDir()
		caseWal := SegmentPath(caseDir, 0)
		if err := os.WriteFile(caseWal, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cat, w, err := open1(caseDir, addRelApplier)
		if err != nil {
			t.Fatalf("cut at byte %d: %v", cut, err)
		}
		got := saveBytes(t, cat.Snapshot())
		w.Close()
		if !bytes.Equal(got, wants[intact]) {
			t.Fatalf("cut at byte %d (%d intact records): recovered state differs from the intact-prefix replay", cut, intact)
		}
	}
}
