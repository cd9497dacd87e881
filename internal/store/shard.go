package store

import (
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"sync"
	"time"

	"worldsetdb/internal/obs"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/wsd"
)

// Component-sharded catalog: the decomposition's independence structure
// used as a physical partitioning key. Every catalog has N >= 1 shards
// and every commit takes the paths in this file. Every relation has a
// home shard (FNV-1a of its name mod N), and a component belongs to the
// shards of the relations it touches. Each shard has its own writer
// lock, its own WAL segment (wal-<shard>.log) with its own group-commit
// queue, and its own portion of the merged snapshot, so commits touching
// disjoint shards execute, fsync and publish fully in parallel.
//
// # Routing
//
// A statement routes by the relations it references plus the relations
// co-touched by any component touching them (the same dependent-
// component closure the bounded evaluator in internal/isql uses): a
// commit that modifies a component touching relations R and S writes to
// both relations' factored content, so it must hold both homes. The
// closure is re-derived under the candidate locks until stable — the
// component topology around a relation only changes under its home
// shard's lock, so a stable derivation cannot be invalidated while the
// locks are held. Statements without routing information (DDL, CTAS,
// view changes, legacy DML — anything that can create components or
// reshape the schema) serialize against all shards.
//
// # Snapshots and epochs
//
// Readers stay wait-free: one atomic merged Snapshot spans all shards.
// Commits are assigned a global epoch (monotone per shard, since it is
// taken under the shard locks) and publish by diffing onto the evolving
// merged snapshot — replace the certain relations homed at the
// participant shards, replace or drop the touched components by their
// stable IDs (routed commits never create components: the native DML
// paths only rewrite or fold existing ones, and every creating
// statement is all-shard). Snapshot.Version is the highest published
// epoch; shardVers carries the per-shard read timestamps staged
// transactions validate against.
//
// # Cross-shard two-phase publish
//
// A multi-shard commit drains the participant queues while holding
// their locks, stages one record per participant segment (each carrying
// the full participant list), fsyncs them in parallel, then appends a
// commit marker to the coordinator segment (the lowest participant).
// Recovery (Open) merges all segments by epoch and discards cross-shard
// epochs whose marker is absent — a crash between staging and the
// marker rolls the transaction back on every shard, never on just some.
// A commit with a single participant — every all-shard commit of a
// 1-shard catalog — is not two-phase: it writes one plain record with
// no participant list and no marker, one fsync.
type shardState struct {
	mu  sync.Mutex // writer lock for commits touching this shard
	log segment    // per-shard log segment; nil = not durable

	// head is the newest assigned (possibly unpublished) merged view
	// with this shard's portion current — single-shard commits chain on
	// it while a group commit is in flight. nil means the published
	// snapshot is current for this shard.
	hmu     sync.Mutex
	head    *Snapshot
	headVer uint64 // epoch of the newest assigned commit on this shard
	pubVer  uint64 // epoch of the newest published commit on this shard
	// contig reports that every epoch in (pubVer, headVer] belongs to
	// this shard's unpublished chain — no other shard took one in
	// between — so an aborted chain can hand its epochs back.
	contig bool

	// Per-shard group-commit queue: committers enqueue, one leader
	// flushes the whole queue with one append and one fsync.
	qmu      sync.Mutex
	qcond    *sync.Cond
	queue    []*shardReq
	flushing bool

	// stats, guarded by hmu (cheap, already taken on every commit).
	commits   uint64
	conflicts uint64

	// queueHist measures group-commit queue wait on this shard (enqueue
	// to flush start). Zero-value usable, exported at isqld /metrics.
	queueHist obs.Histogram
}

// segment is the log a shard appends commit batches to. *WAL is the
// only production implementation; the interface exists so tests can
// drive a shard's group-commit queue with a fake that holds a flush
// leader mid-fsync.
type segment interface {
	AppendBatch(recs []WALRecord) error
}

// wal returns the shard's segment as a WAL (nil when the shard is not
// durable, or logs to a test fake).
func (sh *shardState) wal() *WAL {
	w, _ := sh.log.(*WAL)
	return w
}

// shardReq is one enqueued single-shard commit awaiting durability.
type shardReq struct {
	epoch   uint64
	baseVer uint64 // headVer the commit chained on (stale-abort check)
	db      *wsd.DecompDB
	wset    map[uint64]bool // component IDs the commit may replace
	stmts   []string
	delta   *CommitDelta // page-delta record for replay-free recovery
	done    chan error
	enq     time.Time // when the commit entered the queue
	trace   *obs.Span // committer's trace; the flush leader attaches spans
}

// Reshard converts a freshly constructed catalog (no concurrent users
// yet — server/bench wiring, before serving starts) into an nshards-way
// sharded one; nshards < 1 means 1. The shard count is a runtime
// property, not a persisted one: Save/Load and checkpoints carry no
// shard layout, so the same catalog can be reopened at any count.
func (c *Catalog) Reshard(nshards int) { c.shard(nshards) }

// shard converts a freshly constructed (or freshly recovered,
// single-threaded) catalog into an nshards-way sharded one: assigns
// component IDs, initializes the per-shard states and stamps the
// current snapshot with per-shard versions.
func (c *Catalog) shard(nshards int) {
	if nshards < 1 {
		nshards = 1
	}
	c.nshards = nshards
	c.shards = make([]*shardState, nshards)
	for i := range c.shards {
		sh := &shardState{}
		sh.qcond = sync.NewCond(&sh.qmu)
		c.shards[i] = sh
	}
	c.resetSharded(c.cur.Load())
}

// resetSharded republishes snap as the catalog's current state with
// every shard at snap.Version. Single-threaded use only (construction
// and recovery).
func (c *Catalog) resetSharded(snap *Snapshot) {
	c.assignIDs(snap.DB)
	c.cur.Store(&Snapshot{Version: snap.Version, DB: snap.DB, Views: snap.Views,
		shardVers: c.versAt(snap.Version), nshards: c.nshards, compID: c.compID.Load()})
	c.epoch.Store(snap.Version)
	for _, sh := range c.shards {
		sh.hmu.Lock()
		sh.head, sh.headVer, sh.pubVer = nil, snap.Version, snap.Version
		sh.hmu.Unlock()
	}
}

// versAt returns per-shard read timestamps with every shard at epoch.
func (c *Catalog) versAt(epoch uint64) []uint64 {
	vers := make([]uint64, c.nshards)
	for i := range vers {
		vers[i] = epoch
	}
	return vers
}

// Shards reports the catalog's shard count.
func (c *Catalog) Shards() int { return c.nshards }

// ShardOf returns the home shard of a relation name.
func (c *Catalog) ShardOf(name string) int { return shardOfName(name, c.nshards) }

func shardOfName(name string, nshards int) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(nshards))
}

// refShards returns, sorted, the shards a statement referencing refs
// can read or write: the homes of the refs plus the homes of every
// relation co-touched by a component touching a ref.
func (c *Catalog) refShards(db *wsd.DecompDB, refs []string) []int {
	set := map[int]bool{}
	refIdx := map[int]bool{}
	for _, name := range refs {
		set[shardOfName(name, c.nshards)] = true
		if i := db.IndexOf(name); i >= 0 {
			refIdx[i] = true
		}
	}
	for _, comp := range db.Components {
		touchesRef := false
		var touched []int
		for _, a := range comp.Alternatives {
			for ri, r := range a.Rels {
				if r == nil || r.Len() == 0 {
					continue
				}
				touched = append(touched, ri)
				if refIdx[ri] {
					touchesRef = true
				}
			}
		}
		if touchesRef {
			for _, ri := range touched {
				set[shardOfName(db.Names[ri], c.nshards)] = true
			}
		}
	}
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// compIDsTouching returns the IDs of the components contributing at
// least one tuple to any of the given relation indices — the components
// a commit referencing those relations is allowed to replace.
func compIDsTouching(db *wsd.DecompDB, refIdx map[int]bool) map[uint64]bool {
	out := map[uint64]bool{}
	for _, comp := range db.Components {
		for _, a := range comp.Alternatives {
			hit := false
			for ri, r := range a.Rels {
				if refIdx[ri] && r != nil && r.Len() > 0 {
					out[comp.ID] = true
					hit = true
					break
				}
			}
			if hit {
				break
			}
		}
	}
	return out
}

func (c *Catalog) lockShards(ps []int) {
	for _, p := range ps {
		c.shards[p].mu.Lock()
	}
}

func (c *Catalog) unlockShards(ps []int) {
	for i := len(ps) - 1; i >= 0; i-- {
		c.shards[ps[i]].mu.Unlock()
	}
}

func (c *Catalog) allShards() []int {
	all := make([]int, c.nshards)
	for i := range all {
		all[i] = i
	}
	return all
}

// lockRoute locks the shards refs route to, re-deriving the route under
// the locks until it is stable. Component topology around a relation
// only changes while its home shard's lock is held, so once the
// re-derivation adds nothing outside the held set, the route cannot be
// invalidated until the locks are released. Returns the sorted locked
// set; escalates to all shards if the route refuses to converge.
func (c *Catalog) lockRoute(refs []string) []int {
	ps := map[int]bool{}
	for _, name := range refs {
		ps[shardOfName(name, c.nshards)] = true
	}
	hold := setToSorted(ps)
	for try := 0; ; try++ {
		if try >= 4 || len(hold) == c.nshards {
			hold = c.allShards()
			c.lockShards(hold)
			return hold
		}
		c.lockShards(hold)
		again := c.refShards(c.cur.Load().DB, refs)
		grew := false
		for _, p := range again {
			if !ps[p] {
				ps[p] = true
				grew = true
			}
		}
		if !grew {
			return hold
		}
		c.unlockShards(hold)
		hold = setToSorted(ps)
	}
}

func setToSorted(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// UpdateRouted is Update with routing information: refs names every
// relation the transaction can read or write. Statements whose route
// resolves to one shard take that shard's write path (group commit on
// its WAL segment); statements spanning shards commit through the
// two-phase publish; refs == nil (no routing information) serializes
// against all shards, exactly like Update.
func (c *Catalog) UpdateRouted(refs []string, fn func(*Tx) error) error {
	if refs == nil {
		return c.updateAll(fn)
	}
	ps := c.lockRoute(refs)
	if len(ps) == 1 {
		return c.updateShard(ps[0], refs, fn)
	}
	return c.updateMulti(ps, refs, fn)
}

// shardHead returns the base the next commit on sh must build on: the
// shard's assigned head when a group commit is in flight, the published
// snapshot otherwise. Callers hold sh.mu.
func (c *Catalog) shardHead(sh *shardState) *Snapshot {
	sh.hmu.Lock()
	defer sh.hmu.Unlock()
	if sh.head != nil {
		return sh.head
	}
	return c.cur.Load()
}

// updateShard runs a single-shard commit. Called with shard si's lock
// held; releases it on every path.
func (c *Catalog) updateShard(si int, refs []string, fn func(*Tx) error) error {
	sh := c.shards[si]
	locked := true
	defer func() {
		if locked {
			sh.mu.Unlock()
		}
	}()
	base := c.shardHead(sh)
	tx := &Tx{base: base}
	if err := fn(tx); err != nil {
		return err
	}
	if tx.views != nil {
		// Routed statements never change views; a caller that does has
		// mis-routed (views are global) — escalate rather than tear.
		sh.mu.Unlock()
		locked = false
		return c.updateAll(fn)
	}
	if tx.db == nil {
		return nil
	}
	done, err := c.enqueueShard(si, base, tx.db, routedWset(base.DB, refs), tx.stmts, tx.trace)
	if err != nil {
		return err
	}
	sh.mu.Unlock()
	locked = false
	if done == nil {
		return nil // published inline (not durable)
	}
	c.flushShard(si)
	return <-done
}

// enqueueShard assigns the commit's epoch, advances the shard head and
// either publishes inline (no WAL) or enqueues for the shard's group
// commit. Called with shard si's lock held. A nil done channel with nil
// error means the commit is already published.
func (c *Catalog) enqueueShard(si int, base *Snapshot, db *wsd.DecompDB, wset map[uint64]bool, stmts []string, trace *obs.Span) (chan error, error) {
	sh := c.shards[si]
	if sh.log != nil && len(stmts) == 0 {
		return nil, fmt.Errorf("store: refusing to log a commit with no statement records (writer did not call Tx.Log)")
	}
	req := &shardReq{db: db, wset: wset, stmts: stmts, trace: trace}
	if sh.log != nil && !c.noDeltas {
		sp := trace.Child("wal.delta")
		req.delta = diffShard(base.DB, db, c.nshards, []int{si}, wset)
		sp.End()
	}
	vers := append([]uint64{}, base.shardVers...)
	sh.hmu.Lock()
	req.epoch = c.epoch.Add(1)
	sh.contig = (sh.head == nil || sh.contig) && req.epoch == sh.headVer+1
	req.baseVer = sh.headVer
	vers[si] = req.epoch
	sh.head = &Snapshot{Version: req.epoch, DB: db, Views: base.Views,
		shardVers: vers, nshards: c.nshards, compID: c.compID.Load()}
	sh.headVer = req.epoch
	sh.hmu.Unlock()
	if sh.log == nil {
		c.publishShard(si, req)
		return nil, nil
	}
	req.done = make(chan error, 1)
	req.enq = time.Now()
	sh.qmu.Lock()
	sh.queue = append(sh.queue, req)
	sh.qmu.Unlock()
	return req.done, nil
}

// flushShard elects a group-commit leader for one shard: the first
// committer to arrive while no flush is running takes the whole queue
// as one batch — its own record plus every committer that queued behind
// it — and persists it with a single fsync; everyone else returns
// immediately and waits on its own done channel. Commits that arrive
// during the fsync form the next batch, whose leadership is handed to a
// fresh goroutine, so a committer returns as soon as its own record is
// durable and published. Disjoint shards flush concurrently.
func (c *Catalog) flushShard(si int) {
	sh := c.shards[si]
	sh.qmu.Lock()
	if sh.flushing || len(sh.queue) == 0 {
		sh.qmu.Unlock()
		return
	}
	sh.flushing = true
	batch := sh.queue
	sh.queue = nil
	sh.qmu.Unlock()
	c.flushShardBatch(si, batch)
	sh.qmu.Lock()
	sh.flushing = false
	sh.qcond.Broadcast()
	if len(sh.queue) > 0 {
		go c.flushShard(si)
	}
	sh.qmu.Unlock()
}

// flushShardBatch persists one drained batch to the shard's segment
// with a single fsync and publishes its epochs in order. Requests
// staged on an aborted chain (their base epoch no longer matches the
// published chain) are failed without being written.
func (c *Catalog) flushShardBatch(si int, batch []*shardReq) {
	sh := c.shards[si]
	sh.hmu.Lock()
	expect := sh.pubVer
	sh.hmu.Unlock()
	n := 0
	for n < len(batch) && batch[n].baseVer == expect {
		expect = batch[n].epoch
		n++
	}
	ok, stale := batch[:n], batch[n:]
	if len(ok) > 0 {
		recs := make([]WALRecord, len(ok))
		for i, r := range ok {
			recs[i] = WALRecord{Version: r.epoch, Stmts: r.stmts, Shard: si, Delta: r.delta}
		}
		flushStart := time.Now()
		err := sh.log.AppendBatch(recs)
		flushDur := time.Since(flushStart)
		if err != nil {
			c.abortShard(si, batch, fmt.Errorf("store: logging shard %d commit batch e%d..e%d: %w",
				si, recs[0].Version, recs[len(recs)-1].Version, err))
			return
		}
		for _, r := range ok {
			sh.queueHist.Observe(flushStart.Sub(r.enq))
			if r.trace != nil {
				// The done-channel send below orders these attaches before
				// the committer reads its trace.
				r.trace.ChildSpan("wal.queue", r.enq, flushStart.Sub(r.enq))
				r.trace.ChildSpan("wal.fsync", flushStart, flushDur).
					SetInt("batch", int64(len(ok)))
			}
			c.publishShard(si, r)
			r.done <- nil
		}
	}
	if len(stale) > 0 {
		c.abortShard(si, stale, fmt.Errorf("store: commit aborted: it was staged on a shard version whose log write failed"))
	}
}

// abortShard fails queued commits on one shard after a log-write
// failure and rolls the shard head back to its published state. None of
// the aborted records reached the log (a failed append is truncated
// away), so when the chain holds every epoch since pubVer and no later
// one was assigned, the epochs are handed back: the next commit reuses
// them and a 1-shard log stays dense (see Open's gap rule).
func (c *Catalog) abortShard(si int, failed []*shardReq, err error) {
	sh := c.shards[si]
	sh.hmu.Lock()
	if sh.contig {
		c.epoch.CompareAndSwap(sh.headVer, sh.pubVer)
	}
	sh.head, sh.headVer, sh.contig = nil, sh.pubVer, false
	sh.hmu.Unlock()
	sh.qmu.Lock()
	trailing := sh.queue
	sh.queue = nil
	sh.qmu.Unlock()
	for _, r := range failed {
		if r.done != nil {
			r.done <- err
		}
	}
	for _, r := range trailing {
		if r.done != nil {
			r.done <- err
		}
	}
}

// publishShard merges one single-shard commit into the reader-visible
// snapshot: participant certain relations and wset components come from
// the commit, everything else from the current snapshot.
func (c *Catalog) publishShard(si int, req *shardReq) {
	c.pub.Lock()
	cur := c.cur.Load()
	db := c.applyShardDiff(cur.DB, req.db, []int{si}, req.wset)
	c.storeMerged(cur, db, cur.Views, []int{si}, req.epoch)
	c.pub.Unlock()
	sh := c.shards[si]
	sh.hmu.Lock()
	sh.pubVer = req.epoch
	if sh.headVer == req.epoch {
		sh.head = nil // chain drained: next base is the merged snapshot
	}
	sh.commits++
	sh.hmu.Unlock()
}

// storeMerged publishes a merged snapshot. Caller holds pub.
func (c *Catalog) storeMerged(cur *Snapshot, db *wsd.DecompDB, views map[string]string, ps []int, epoch uint64) {
	vers := append([]uint64{}, cur.shardVers...)
	for _, p := range ps {
		vers[p] = epoch
	}
	ver := cur.Version
	if epoch > ver {
		ver = epoch
	}
	c.cur.Store(&Snapshot{Version: ver, DB: db, Views: views,
		shardVers: vers, nshards: c.nshards, compID: c.compID.Load()})
}

// applyShardDiff overlays a commit's staged decomposition onto the
// current merged one: certain relations homed at a participant shard
// and components in wset (by stable ID) come from next; everything else
// keeps the current snapshot's pointers. Routed commits never create
// components, so the overlay only replaces or drops — the merged
// component order is the current order with touched entries substituted
// in place, which keeps publication order-independent across shards.
func (c *Catalog) applyShardDiff(base, next *wsd.DecompDB, ps []int, wset map[uint64]bool) *wsd.DecompDB {
	inP := map[int]bool{}
	for _, p := range ps {
		inP[p] = true
	}
	out := &wsd.DecompDB{
		Names:   base.Names,
		Schemas: base.Schemas,
		Certain: make([]*relation.Relation, len(base.Certain)),
	}
	for i := range base.Certain {
		if inP[shardOfName(base.Names[i], c.nshards)] {
			out.Certain[i] = next.Certain[i]
		} else {
			out.Certain[i] = base.Certain[i]
		}
	}
	repl := map[uint64]wsd.DBComponent{}
	for _, comp := range next.Components {
		if wset[comp.ID] {
			repl[comp.ID] = comp
		}
	}
	out.Components = make([]wsd.DBComponent, 0, len(base.Components))
	for _, comp := range base.Components {
		if wset[comp.ID] {
			if nc, hit := repl[comp.ID]; hit {
				out.Components = append(out.Components, nc)
			}
			continue // absent in next: the commit folded or emptied it
		}
		out.Components = append(out.Components, comp)
	}
	return out
}

// drain blocks until no group commit is queued or mid-flush on the
// shard. Callers hold sh.mu, so nothing new can be enqueued meanwhile;
// once drained, the shard's head is nil and the published snapshot is
// current for it.
func (sh *shardState) drain() {
	sh.qmu.Lock()
	for sh.flushing || len(sh.queue) > 0 {
		sh.qcond.Wait()
	}
	sh.qmu.Unlock()
}

// updateMulti runs a cross-shard commit over the locked participant set
// ps (1 < len(ps)). Called with the locks held; releases them.
func (c *Catalog) updateMulti(ps []int, refs []string, fn func(*Tx) error) error {
	defer c.unlockShards(ps)
	for _, p := range ps {
		c.shards[p].drain()
	}
	base := c.cur.Load()
	tx := &Tx{base: base}
	if err := fn(tx); err != nil {
		return err
	}
	if tx.views != nil {
		return fmt.Errorf("store: routed commit staged view changes (views are global; commit with refs == nil)")
	}
	if tx.db == nil {
		return nil
	}
	return c.commitMulti(ps, base.DB, tx.db, routedWset(base.DB, refs), tx.stmts, tx.trace)
}

// updateAll runs a commit serialized against every shard: DDL, CTAS,
// view changes and legacy DML — anything that can create components,
// reshape the schema or read the whole catalog.
func (c *Catalog) updateAll(fn func(*Tx) error) error {
	all := c.allShards()
	c.lockShards(all)
	defer c.unlockShards(all)
	for _, p := range all {
		c.shards[p].drain()
	}
	base := c.cur.Load()
	tx := &Tx{base: base}
	if err := fn(tx); err != nil {
		return err
	}
	if tx.db == nil && tx.views == nil {
		return nil
	}
	return c.commitAll(base, tx.DB(), tx.Views(), tx.stmts, tx.trace)
}

// commitAll publishes db and views wholesale as the next epoch: the
// staged state replaces the merged snapshot and new components get IDs
// here. Caller holds every shard lock with every queue drained; base is
// the published snapshot the commit was staged on.
func (c *Catalog) commitAll(base *Snapshot, db *wsd.DecompDB, views map[string]string, stmts []string, trace *obs.Span) error {
	all := c.allShards()
	// IDs are assigned before staging so the logged delta names the same
	// component IDs recovery will re-derive.
	c.assignIDs(db)
	epoch := c.epoch.Add(1)
	next := &Snapshot{Version: epoch, DB: db, Views: views,
		nshards: c.nshards, compID: c.compID.Load()}
	var delta *CommitDelta
	if c.shards[0].log != nil && !c.noDeltas {
		sp := trace.Child("wal.delta")
		delta = diffSnapshots(base, next)
		sp.End()
	}
	if err := c.stageAndMark(all, epoch, stmts, delta, trace); err != nil {
		return err
	}
	c.pub.Lock()
	next.shardVers = c.versAt(epoch)
	c.cur.Store(next)
	c.pub.Unlock()
	c.finishShards(all, epoch)
	return nil
}

// commitMulti publishes a routed commit over the participant shards ps
// as the next epoch: certain relations homed at ps and the write-set
// components wset come from next, everything else from the published
// snapshot. Caller holds the participant locks with their queues
// drained; base is the decomposition the commit was staged on.
func (c *Catalog) commitMulti(ps []int, base, next *wsd.DecompDB, wset map[uint64]bool, stmts []string, trace *obs.Span) error {
	epoch := c.epoch.Add(1)
	var delta *CommitDelta
	if c.shards[ps[0]].log != nil && !c.noDeltas {
		sp := trace.Child("wal.delta")
		delta = diffShard(base, next, c.nshards, ps, wset)
		sp.End()
	}
	if err := c.stageAndMark(ps, epoch, stmts, delta, trace); err != nil {
		return err
	}
	c.pub.Lock()
	cur := c.cur.Load()
	db := c.applyShardDiff(cur.DB, next, ps, wset)
	c.storeMerged(cur, db, cur.Views, ps, epoch)
	c.pub.Unlock()
	c.finishShards(ps, epoch)
	return nil
}

// routedWset returns the IDs of the components a routed commit over
// refs may replace: those contributing tuples to a referenced relation.
func routedWset(db *wsd.DecompDB, refs []string) map[uint64]bool {
	refIdx := map[int]bool{}
	for _, name := range refs {
		if i := db.IndexOf(name); i >= 0 {
			refIdx[i] = true
		}
	}
	return compIDsTouching(db, refIdx)
}

// finishShards advances participant shards past a published cross-shard
// epoch. Caller holds the participant locks.
func (c *Catalog) finishShards(ps []int, epoch uint64) {
	for _, p := range ps {
		sh := c.shards[p]
		sh.hmu.Lock()
		sh.head, sh.headVer, sh.pubVer = nil, epoch, epoch
		sh.commits++
		sh.hmu.Unlock()
	}
}

// stageAndMark is the two-phase durability protocol for a cross-shard
// commit: stage one record per participant segment (fsynced in
// parallel, each carrying the full participant list), then append the
// commit marker to the coordinator segment — the lowest participant.
// Recovery discards staged cross-shard epochs without their marker, so
// a failure (or crash) anywhere before the marker aborts the commit on
// every shard; after the marker it is durable on every shard. A single
// participant needs no protocol: its one plain record is the commit.
func (c *Catalog) stageAndMark(ps []int, epoch uint64, stmts []string, delta *CommitDelta, trace *obs.Span) error {
	if c.shards[ps[0]].log == nil {
		return nil
	}
	// Failures that leave nothing of the epoch in any log hand it back
	// when no later one was assigned (see abortShard).
	if len(stmts) == 0 {
		c.epoch.CompareAndSwap(epoch, epoch-1)
		return fmt.Errorf("store: refusing to log a commit with no statement records (writer did not call Tx.Log)")
	}
	if len(ps) == 1 {
		// The participant's lock is held and its queue drained: the record
		// goes out as a batch of one, with no queue wait.
		start := time.Now()
		err := c.shards[ps[0]].log.AppendBatch([]WALRecord{
			{Version: epoch, Stmts: stmts, Shard: ps[0], Delta: delta}})
		if trace != nil {
			trace.ChildSpan("wal.queue", start, 0)
			trace.ChildSpan("wal.fsync", start, time.Since(start)).SetInt("batch", 1)
		}
		if err != nil {
			c.epoch.CompareAndSwap(epoch, epoch-1)
			return fmt.Errorf("store: logging commit e%d: %w", epoch, err)
		}
		return nil
	}
	stage := trace.Child("txn.2pc.stage").SetInt("participants", int64(len(ps)))
	var wg sync.WaitGroup
	errs := make([]error, len(ps))
	for i, p := range ps {
		wg.Add(1)
		go func(i, p int) {
			defer wg.Done()
			errs[i] = c.shards[p].log.AppendBatch([]WALRecord{
				{Version: epoch, Stmts: stmts, Shard: p, Parts: ps, Delta: delta}})
		}(i, p)
	}
	wg.Wait()
	stage.End()
	for _, err := range errs {
		if err != nil {
			// Staged records without a marker are discarded by recovery;
			// nothing needs undoing on the shards that did fsync.
			return fmt.Errorf("store: staging cross-shard commit e%d: %w", epoch, err)
		}
	}
	mark := trace.Child("txn.2pc.marker").SetInt("coordinator", int64(ps[0]))
	if err := c.shards[ps[0]].log.AppendBatch([]WALRecord{
		{Version: epoch, Shard: ps[0], Parts: ps, Marker: true}}); err != nil {
		mark.End()
		return fmt.Errorf("store: writing commit marker for e%d: %w", epoch, err)
	}
	mark.End()
	return nil
}

// Checkpoint persists the merged snapshot as the new recovery base and
// truncates every shard segment, with all shard locks held and all
// queues drained so no commit can land between the snapshot read and
// the truncates. Readers are unaffected; writers wait for the save. The
// catalog must come from Open.
//
// The base is one page file per shard (checkpoint.wsd plus .s<i> side
// files), each written incrementally — only shards whose homed state
// changed rewrite any pages, and a checkpoint with nothing new writes
// zero bytes. Side files commit before the main file, so a crash
// mid-checkpoint leaves either the old base (main file not yet
// advanced) or a mixed set of per-shard epochs that recovery merges and
// heals from the WALs.
func (c *Catalog) Checkpoint() error {
	if len(c.pagers) != c.nshards {
		return fmt.Errorf("store: checkpoint needs a durable catalog (store.Open)")
	}
	all := c.allShards()
	c.lockShards(all)
	defer c.unlockShards(all)
	for _, p := range all {
		c.shards[p].drain()
	}
	snap := c.cur.Load()
	noop, err := c.checkpointPaged(snap)
	if err != nil {
		return err
	}
	for _, sh := range c.shards {
		w := sh.wal()
		if w == nil {
			continue
		}
		// After a no-op the segments can only hold records the base
		// already covers (recovery skips them): leave them be.
		if !noop {
			if err := w.reset(); err != nil {
				return err
			}
		}
		w.noteCheckpoint(snap.Version)
	}
	return nil
}

// checkpointPaged writes the snapshot across the per-shard page files:
// side shards first (in parallel — they are independent files), the
// coordinating main file last. Every file records the full global
// version, so recovery can tell exactly which files a torn checkpoint
// advanced. Called with all shard locks held and queues drained.
// Reports whether the checkpoint was a no-op.
func (c *Catalog) checkpointPaged(snap *Snapshot) (bool, error) {
	allNoop := true
	for _, ps := range c.pagers {
		if ps.Version() != snap.Version {
			allNoop = false
			break
		}
	}
	if allNoop {
		// Nothing committed since the last checkpoint on any shard: the
		// on-disk base already is this state. Zero writes.
		for _, ps := range c.pagers {
			ps.NoteNoop()
		}
		return true, nil
	}
	slices := ckptSlices(snap, c.nshards, c.compID.Load())
	var wg sync.WaitGroup
	errs := make([]error, c.nshards)
	for i := 1; i < c.nshards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.pagers[i].WriteCheckpoint(slices[i])
		}(i)
	}
	wg.Wait()
	for i := 1; i < c.nshards; i++ {
		if errs[i] != nil {
			return false, fmt.Errorf("store: writing shard %d page checkpoint: %w", i, errs[i])
		}
	}
	if err := c.pagers[0].WriteCheckpoint(slices[0]); err != nil {
		return false, fmt.Errorf("store: writing shard 0 page checkpoint: %w", err)
	}
	// A previous run at a higher shard count can leave side files beyond
	// ours; they are stale the moment this full-set checkpoint commits.
	// One that survives would be merged by the next recovery (which takes
	// the oldest file version as its base and re-adds the stale file's
	// objects), so a failed delete fails the checkpoint and the WAL keeps
	// the records that heal it.
	for i := c.nshards; ; i++ {
		p := shardCkptPath(c.pagers[0].Path(), i)
		if _, err := os.Stat(p); err != nil {
			break
		}
		if err := os.Remove(p); err != nil {
			return false, fmt.Errorf("store: removing stale shard checkpoint: %w", err)
		}
	}
	return false, nil
}

// CompShards maps each component of the snapshot's decomposition to its
// home shard — the shard of the lowest-indexed relation it contributes
// tuples to (shard 0 for a component contributing nowhere). nil at one
// shard, where every component is home on shard 0, and on staging
// snapshots; query execution uses the map to align its parallel scan
// chunks with shard boundaries (wsdexec.Options.Shards).
func (s *Snapshot) CompShards() []int {
	if s.nshards <= 1 {
		return nil
	}
	out := make([]int, len(s.DB.Components))
	for ci, comp := range s.DB.Components {
		out[ci] = compHome(s.DB, comp, s.nshards)
	}
	return out
}

// compHome returns a component's home shard: the shard of the
// lowest-indexed relation it contributes tuples to (shard 0 for a
// component contributing nowhere).
func compHome(db *wsd.DecompDB, comp wsd.DBComponent, nshards int) int {
	first := -1
	for _, a := range comp.Alternatives {
		for ri, r := range a.Rels {
			if r == nil || r.Len() == 0 {
				continue
			}
			if first < 0 || ri < first {
				first = ri
			}
		}
	}
	if first < 0 {
		return 0
	}
	return shardOfName(db.Names[first], nshards)
}

// ShardStat is one shard's commit statistics.
type ShardStat struct {
	Shard     int    `json:"shard"`
	Version   uint64 `json:"version"`   // newest published epoch
	Commits   uint64 `json:"commits"`   // commits published
	Conflicts uint64 `json:"conflicts"` // staged commits refused validation
	Pending   int    `json:"pending"`   // queued for group commit
	Syncs     uint64 `json:"syncs"`     // WAL fsyncs on this segment
}

// ShardObs exposes one shard's latency histograms: group-commit queue
// wait and WAL fsync. Fsync is nil when the shard is not durable.
type ShardObs struct {
	Shard int
	Queue *obs.Histogram
	Fsync *obs.Histogram
}

// ObsShards returns the live latency histograms per shard. The
// histograms are the catalog's own — concurrent commits keep updating
// them — so callers snapshot before exporting.
func (c *Catalog) ObsShards() []ShardObs {
	out := make([]ShardObs, c.nshards)
	for i, sh := range c.shards {
		out[i] = ShardObs{Shard: i, Queue: &sh.queueHist, Fsync: sh.wal().FsyncHist()}
	}
	return out
}

// ShardStats reports per-shard commit statistics.
func (c *Catalog) ShardStats() []ShardStat {
	out := make([]ShardStat, c.nshards)
	for i, sh := range c.shards {
		sh.hmu.Lock()
		out[i] = ShardStat{Shard: i, Version: sh.pubVer, Commits: sh.commits, Conflicts: sh.conflicts}
		sh.hmu.Unlock()
		sh.qmu.Lock()
		out[i].Pending = len(sh.queue)
		sh.qmu.Unlock()
		if w := sh.wal(); w != nil {
			out[i].Syncs = w.Syncs()
		}
	}
	return out
}
