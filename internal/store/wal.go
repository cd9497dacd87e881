package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"worldsetdb/internal/obs"
)

// Write-ahead log: durability for the catalog without whole-snapshot
// saves. Every committed transaction appends one record — the I-SQL
// statement texts that produced it, the commit epoch, and (by default)
// a page delta of its effect — to the segment of each shard it touched,
// and fsyncs before the version becomes visible. Recovery (Open) loads
// the last checkpoint and replays the log tail: delta records apply
// directly, the others are deterministically re-executed — statement
// execution is pure, so replaying record e against the catalog at epoch
// e-1 reproduces epoch e exactly, byte for byte through Save.
//
// # On-disk format
//
// One JSON object per line: {"v":<epoch>,"stmts":[...],"crc":<sum>},
// where crc is the IEEE CRC-32 of the version and the length-prefixed
// statement texts (plus the shard fields and delta when present). A
// torn tail (crash mid-append) fails the CRC or the JSON decode;
// OpenWAL truncates the file back to the last intact record.
// Checkpointing commits the new base and then truncates the log;
// records are filtered by epoch on replay, so a crash between those two
// steps only leaves already-checkpointed records that replay skips.

// WALRecord is one committed transaction in the log.
type WALRecord struct {
	// Version is the catalog version (on a sharded catalog: the global
	// commit epoch) the transaction committed as.
	Version uint64
	// Stmts are the statement texts that produced it, in execution order.
	Stmts []string
	// Shard is the shard whose segment holds the record.
	Shard int
	// Parts, when the commit spans shards, lists every participant
	// shard. A cross-shard record is staged once per participant
	// segment and is only valid if its epoch's commit marker exists.
	Parts []int
	// Marker marks the commit record of a cross-shard epoch: appended
	// to the coordinator segment after every participant's stage record
	// is durable. A staged cross-shard epoch without its marker is
	// discarded by recovery — the commit rolls back on all shards.
	Marker bool
	// Delta, when present, is the commit's effect on durable state
	// (delta.go); recovery applies it directly instead of re-executing
	// Stmts. Records written before deltas existed replay by statement.
	Delta *CommitDelta

	// deltaRaw is Delta's verbatim JSON as stored on disk — the CRC
	// covers these exact bytes, so a re-marshal can never invalidate a
	// record.
	deltaRaw []byte
}

// walLine is the on-disk framing of a record. The shard fields are
// omitted when empty, so single-participant records keep the historical
// format byte-for-byte.
type walLine struct {
	Version uint64          `json:"v"`
	Stmts   []string        `json:"stmts"`
	Shard   int             `json:"shard,omitempty"`
	Parts   []int           `json:"parts,omitempty"`
	Marker  bool            `json:"m,omitempty"`
	Delta   json.RawMessage `json:"delta,omitempty"`
	CRC     uint32          `json:"crc"`
}

// crcOfRecord sums the record content: version plus length-prefixed
// statement texts (the prefix keeps ["ab","c"] distinct from
// ["a","bc"]), plus — only when present, so historical records keep
// their sums — the cross-shard participant list, the marker flag and
// the delta bytes.
func crcOfRecord(rec WALRecord) uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], rec.Version)
	h.Write(buf[:])
	for _, s := range rec.Stmts {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		io.WriteString(h, s)
	}
	if len(rec.Parts) > 0 || rec.Marker {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(rec.Parts)))
		h.Write(buf[:])
		for _, p := range rec.Parts {
			binary.LittleEndian.PutUint64(buf[:], uint64(p))
			h.Write(buf[:])
		}
		if rec.Marker {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	if len(rec.deltaRaw) > 0 {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(rec.deltaRaw)))
		h.Write(buf[:])
		h.Write(rec.deltaRaw)
	}
	return h.Sum32()
}

// WAL is one shard's open log segment. Open attaches one per shard;
// the shard's group-commit leader persists every waiting committer's
// record with one AppendBatch, one fsync. Safe for concurrent use
// (appends serialize on the WAL mutex).
type WAL struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	appended int    // records appended since open or last checkpoint
	tail     int    // records currently in the log (survivors at open + appends)
	syncs    uint64 // fsyncs issued for record appends (not checkpoints)

	// Checkpoint bookkeeping for the durability gauges: the catalog
	// version the last checkpoint persisted and when it completed. Both
	// are zero until the first checkpoint after open.
	lastCkptVer uint64
	lastCkptAt  time.Time

	// fsync measures the latency of each record-append fsync — the
	// durability cost the group-commit leader amortizes. Zero-value
	// usable; exported at isqld /metrics per shard segment.
	fsync obs.Histogram
}

// OpenWAL opens (creating if absent) the log at path and returns the
// intact records it holds. A torn tail — a final record interrupted by
// a crash — is detected by CRC/framing and truncated away so appending
// resumes from the last durable record.
func OpenWAL(path string) (*WAL, []WALRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: opening WAL: %w", err)
	}
	records, valid, err := scanWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if info.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &WAL{f: f, path: path, tail: len(records)}, records, nil
}

// scanWAL reads records from the start of f, stopping (without error)
// at the first torn or corrupt line, and returns the records plus the
// byte length of the intact prefix. Lines are read without a length
// cap: a large committed record must never be mistaken for a torn tail.
func scanWAL(f *os.File) ([]WALRecord, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	var records []WALRecord
	var valid int64
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A final line without its newline is a torn append.
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("store: scanning WAL: %w", err)
		}
		var rec walLine
		if err := json.Unmarshal(line[:len(line)-1], &rec); err != nil {
			break // torn or corrupt tail
		}
		decoded := WALRecord{Version: rec.Version, Stmts: rec.Stmts,
			Shard: rec.Shard, Parts: rec.Parts, Marker: rec.Marker, deltaRaw: rec.Delta}
		if rec.CRC != crcOfRecord(decoded) {
			break
		}
		if len(decoded.deltaRaw) > 0 {
			d, err := decodeDelta(decoded.deltaRaw)
			if err != nil {
				break // CRC-intact but undecodable delta: treat as torn
			}
			decoded.Delta = d
		}
		records = append(records, decoded)
		valid += int64(len(line))
	}
	return records, valid, nil
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// AppendBatch writes a batch of committed transactions as one append
// and one fsync — the hook behind group commit. The
// batch is all-or-nothing from the caller's perspective: on a write or
// fsync failure the log is truncated back to its pre-append length and
// every record in the batch is aborted together. (A crash between the
// write and the fsync can still leave a durable prefix of the batch on
// disk; recovery replays exactly that intact prefix — those commits
// were never acknowledged, and replaying un-acked but durable records
// is indistinguishable from the commit having happened.)
func (w *WAL) AppendBatch(recs []WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("store: WAL is closed")
	}
	var buf []byte
	for _, rec := range recs {
		if len(rec.Stmts) == 0 && !rec.Marker {
			// A record with no statements cannot replay to a new version;
			// logging it would brick recovery. The caller staged changes
			// without Tx.Log — surface the bug at commit time. (Marker
			// records are the exception: they carry a decision, not
			// statements.)
			return fmt.Errorf("store: refusing to log commit v%d with no statement records (writer did not call Tx.Log)", rec.Version)
		}
		if rec.Delta != nil && len(rec.deltaRaw) == 0 {
			raw, err := json.Marshal(rec.Delta)
			if err != nil {
				return fmt.Errorf("store: encoding commit delta v%d: %w", rec.Version, err)
			}
			rec.deltaRaw = raw
		}
		line, err := json.Marshal(walLine{Version: rec.Version, Stmts: rec.Stmts,
			Shard: rec.Shard, Parts: rec.Parts, Marker: rec.Marker,
			Delta: json.RawMessage(rec.deltaRaw), CRC: crcOfRecord(rec)})
		if err != nil {
			return err
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	base, err := w.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	undo := func(cause error) error {
		if terr := w.f.Truncate(base); terr == nil {
			w.f.Seek(base, io.SeekStart)
		}
		return cause
	}
	if _, err := w.f.Write(buf); err != nil {
		return undo(fmt.Errorf("store: appending WAL batch of %d record(s): %w", len(recs), err))
	}
	syncStart := time.Now()
	if err := w.f.Sync(); err != nil {
		return undo(fmt.Errorf("store: fsyncing WAL batch of %d record(s): %w", len(recs), err))
	}
	w.fsync.Observe(time.Since(syncStart))
	w.appended += len(recs)
	w.tail += len(recs)
	w.syncs++
	return nil
}

// FsyncHist exposes the record-append fsync latency histogram.
func (w *WAL) FsyncHist() *obs.Histogram {
	if w == nil {
		return nil
	}
	return &w.fsync
}

// Syncs reports how many fsyncs record appends have issued. With group
// commit, concurrent committers share syncs: Syncs() can be far below
// the number of committed transactions (the amortization wsabench's
// TXN/group-commit ops record).
func (w *WAL) Syncs() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncs
}

// Appended reports the number of records appended since the log was
// opened or last checkpointed (the -checkpoint-every trigger).
func (w *WAL) Appended() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// TailRecords reports the number of records the log currently holds —
// the replay work a crash right now would cost. Unlike Appended it
// counts records that survived the last open, not just new appends.
func (w *WAL) TailRecords() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tail
}

// LastCheckpoint reports the catalog version and completion time of the
// last checkpoint taken through this log (zero values before the
// first). Feeds the wsdb_checkpoint_age_seconds gauge.
func (w *WAL) LastCheckpoint() (uint64, time.Time) {
	if w == nil {
		return 0, time.Time{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastCkptVer, w.lastCkptAt
}

// noteCheckpoint records that a checkpoint at version v completed.
func (w *WAL) noteCheckpoint(v uint64) {
	w.mu.Lock()
	w.lastCkptVer = v
	w.lastCkptAt = time.Now()
	w.mu.Unlock()
}

// reset truncates the log to empty after a checkpoint save.
func (w *WAL) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("store: WAL is closed")
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating WAL after checkpoint: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.appended = 0
	w.tail = 0
	return nil
}

// Close closes the log file. Appends after Close fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// Applier re-executes one committed WAL record against the catalog
// during recovery. It must apply the record's statements as a single
// transaction (isql.ReplayRecord is the canonical implementation — the
// store itself cannot parse I-SQL).
type Applier func(cat *Catalog, rec WALRecord) error

// Options configures Open.
type Options struct {
	// Shards is the component shard count; values below 1 mean 1. It is
	// a runtime choice, not a persisted one: a directory checkpointed
	// cleanly at one count reopens at any other.
	Shards int
	// PoolPages is the buffer-pool capacity in pages per shard for the
	// page-file base (0 = DefaultPoolPages). Catalogs larger than the
	// pool still recover: the pool pages object chains in and out of
	// memory on demand.
	PoolPages int
	// Applier re-executes WAL records that carry no page delta, or whose
	// delta no longer applies (isql.ReplayRecord; isql.Open fills it in).
	Applier Applier
	// Seed builds the initial catalog when dir holds no state yet; nil
	// means the empty catalog. It is not called when dir holds state:
	// recovered state always wins.
	Seed func() (*Catalog, error)
}

// Open recovers the durable catalog in dir (creating dir and seeding it
// when it holds no state) and returns it with one WAL segment per shard
// attached, ready for new transactions. The layout is
// dir/checkpoint.wsd — the last paged checkpoint, plus a
// checkpoint.wsd.s<i> side file per shard i > 0 — and dir/wal-<i>.log,
// shard i's log tail. A legacy single log dir/wal.log is adopted as
// segment 0 on first open, and a legacy v1 JSON checkpoint is read as
// the base; the next Checkpoint rewrites it in the page format.
//
// Recovery merges the checkpoint files — each object from the newest
// file holding it, so a torn multi-file checkpoint still loads, with
// side files of a higher former shard count included — and then the
// segments' intact records by epoch (see replay). The catalog after
// Open is byte-identical (through Save) to the last committed state
// before the crash: committed transactions survive, uncommitted ones
// vanish. A fresh directory is seeded from opt.Seed and checkpointed at
// once, so the seed itself is durable before the first transaction.
func Open(dir string, opt Options) (*Catalog, []*WAL, error) {
	nshards := max(opt.Shards, 1)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := adoptLegacyWAL(dir); err != nil {
		return nil, nil, err
	}
	ckpt := filepath.Join(dir, "checkpoint.wsd")
	cat, pagers, err := loadBase(ckpt, nshards, opt.PoolPages)
	if err != nil {
		return nil, nil, err
	}
	wals := make([]*WAL, nshards)
	fail := func(err error) (*Catalog, []*WAL, error) {
		for _, w := range wals {
			if w != nil {
				w.Close()
			}
		}
		for _, ps := range pagers {
			ps.Close()
		}
		return nil, nil, err
	}
	var records []WALRecord
	for si := range wals {
		w, recs, err := OpenWAL(SegmentPath(dir, si))
		if err != nil {
			return fail(err)
		}
		wals[si] = w
		records = append(records, recs...)
	}
	if err := checkExtraSegments(dir, nshards, cat.Snapshot().Version); err != nil {
		return fail(err)
	}
	_, serr := os.Stat(ckpt)
	fresh := os.IsNotExist(serr) && len(records) == 0
	if fresh && opt.Seed != nil {
		if cat, err = opt.Seed(); err != nil {
			return fail(err)
		}
	}
	cat.shard(nshards)
	cat.pagers = pagers
	if err := cat.replay(records, opt.Applier); err != nil {
		return fail(err)
	}
	for si, sh := range cat.shards {
		sh.log = wals[si]
	}
	if fresh {
		if err := cat.Checkpoint(); err != nil {
			return fail(fmt.Errorf("store: checkpointing seed: %w", err))
		}
	}
	return cat, wals, nil
}

// replay applies the WAL tail to a freshly loaded catalog: records are
// merged by epoch, cross-shard epochs whose commit marker is absent
// are discarded (the two-phase publish never finished — the
// transaction rolls back on every shard), and the surviving epochs
// newer than the base replay in ascending order, as page deltas where
// possible and through applier otherwise. Epoch order is a valid
// serialization of the pre-crash execution: single-shard commits read
// only their shard and epochs are assigned under the shard locks, so
// replaying the merged sequence serially reproduces the per-shard
// states byte-identically.
func (c *Catalog) replay(records []WALRecord, applier Applier) error {
	type epochRec struct {
		stmts  []string
		parts  []int
		delta  *CommitDelta
		marked bool
	}
	epochs := map[uint64]*epochRec{}
	for _, rec := range records {
		er := epochs[rec.Version]
		if er == nil {
			er = &epochRec{}
			epochs[rec.Version] = er
		}
		if rec.Marker {
			er.marked = true
			continue
		}
		er.stmts, er.parts = rec.Stmts, rec.Parts
		if rec.Delta != nil {
			er.delta = rec.Delta
		}
	}
	base := c.cur.Load().Version
	var order []uint64
	for e, er := range epochs {
		switch {
		case e <= base: // already in the checkpoint (crash between save and truncate)
		case len(er.parts) > 1 && !er.marked: // unmarked cross-shard prefix: rolls back everywhere
		case len(er.stmts) == 0: // marker without any surviving stage record
		default:
			order = append(order, e)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	// Delta replay is only sound while the surviving epoch chain is
	// dense: a delta captures whole objects as of its commit, so applying
	// one after an earlier epoch was discarded (torn segment, rolled-back
	// cross-shard commit) would resurrect that epoch's effects. With
	// several segments the first gap switches the rest of the replay to
	// statement re-execution — the reference semantics for arbitrary
	// surviving subsets. A single segment has no sibling to tear and no
	// cross-shard commit to roll back, so a gap there means lost records
	// and recovery fails instead.
	dense := true
	expected := base + 1
	for _, e := range order {
		if e != expected {
			if c.nshards == 1 {
				return fmt.Errorf("store: WAL gap: catalog at v%d, next record is v%d", expected-1, e)
			}
			dense = false
		}
		expected = e + 1
		er := epochs[e]
		if dense && er.delta != nil {
			cur := c.cur.Load()
			if db, views, err := applyDelta(cur.DB, cur.Views, er.delta); err == nil {
				c.resetSharded(&Snapshot{Version: e, DB: db, Views: views})
				continue
			}
			dense = false
		}
		if applier == nil {
			return fmt.Errorf("store: WAL epoch e%d needs statement replay, but Options.Applier is nil", e)
		}
		if err := applier(c, WALRecord{Version: e, Stmts: er.stmts}); err != nil {
			return fmt.Errorf("store: replaying WAL epoch e%d: %w", e, err)
		}
	}
	// Re-stamp the catalog at the last durable epoch so the recovered
	// Version (which Save persists) matches the pre-crash published
	// state rather than the compressed replay count.
	last := base
	if len(order) > 0 {
		last = order[len(order)-1]
	}
	cur := c.cur.Load()
	c.resetSharded(&Snapshot{Version: last, DB: cur.DB, Views: cur.Views})
	return nil
}

// SegmentPath returns the path of shard si's WAL segment under dir.
func SegmentPath(dir string, si int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%d.log", si))
}

// adoptLegacyWAL turns the single log of the pre-segment layout,
// dir/wal.log, into segment 0: its records are exactly a 1-shard
// catalog's, so recovery at any shard count replays them. An empty
// legacy log is simply removed.
func adoptLegacyWAL(dir string) error {
	legacy := filepath.Join(dir, "wal.log")
	fi, err := os.Stat(legacy)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	seg := SegmentPath(dir, 0)
	if fi.Size() == 0 {
		err = os.Remove(legacy)
	} else if si, serr := os.Stat(seg); serr == nil && si.Size() > 0 {
		return fmt.Errorf("store: both %s and %s hold records; cannot tell which log is current", legacy, seg)
	} else {
		err = os.Rename(legacy, seg)
	}
	if err != nil {
		return fmt.Errorf("store: adopting legacy WAL: %w", err)
	}
	return fsyncDir(dir)
}

// checkExtraSegments refuses to open when a segment beyond the shard
// count — left by a run at a higher count — holds a record newer than
// the checkpoint base: recovery at this count would silently drop it.
// Records the checkpoint already covers are harmless.
func checkExtraSegments(dir string, nshards int, base uint64) error {
	for si := nshards; ; si++ {
		path := SegmentPath(dir, si)
		if _, err := os.Stat(path); err != nil {
			return nil
		}
		w, recs, err := OpenWAL(path)
		if err != nil {
			return err
		}
		w.Close()
		for _, r := range recs {
			if r.Version > base {
				return fmt.Errorf("store: %s holds commits newer than the checkpoint; reopen with at least %d shards to recover them", path, si+1)
			}
		}
	}
}

// loadBase loads the checkpoint base for an nshards-way catalog
// and returns it with one PageStore per shard (uninitialized stores for
// files that do not exist yet — the first checkpoint creates them).
// With a page-file main base, side files are probed past nshards too: a
// catalog checkpointed at a higher shard count keeps its objects in
// files the current count does not write, and the merge must still see
// them.
func loadBase(wsdPath string, nshards, poolPages int) (*Catalog, []*PageStore, error) {
	pagers := make([]*PageStore, nshards)
	var extras []*PageStore
	fail := func(err error) (*Catalog, []*PageStore, error) {
		for _, ps := range pagers {
			if ps != nil {
				ps.Close()
			}
		}
		for _, ps := range extras {
			ps.Close()
		}
		return nil, nil, err
	}
	main, loaded, err := OpenPageStore(wsdPath, 0, true, poolPages)
	if err != nil {
		return fail(fmt.Errorf("store: loading checkpoint: %w", err))
	}
	pagers[0] = main
	if loaded == nil {
		// Legacy v1 JSON (or no file at all): load it whole; the pagers
		// stay uninitialized until the first checkpoint migrates the base
		// to the page format.
		var cat *Catalog
		switch _, serr := os.Stat(wsdPath); {
		case serr == nil:
			cat, err = LoadFile(wsdPath)
			if err != nil {
				return fail(fmt.Errorf("store: loading checkpoint: %w", err))
			}
		case os.IsNotExist(serr):
			cat = New(nil)
		default:
			return fail(serr)
		}
		for i := 1; i < nshards; i++ {
			ps, _, perr := OpenPageStore(shardCkptPath(wsdPath, i), i, false, poolPages)
			if perr != nil {
				return fail(fmt.Errorf("store: opening shard %d page store: %w", i, perr))
			}
			pagers[i] = ps
		}
		return cat, pagers, nil
	}
	files := []*loadedShard{loaded}
	for i := 1; ; i++ {
		p := shardCkptPath(wsdPath, i)
		if _, serr := os.Stat(p); os.IsNotExist(serr) {
			if i < nshards {
				ps, _, perr := OpenPageStore(p, i, false, poolPages)
				if perr != nil {
					return fail(fmt.Errorf("store: opening shard %d page store: %w", i, perr))
				}
				pagers[i] = ps
				continue
			}
			break
		}
		ps, sl, perr := OpenPageStore(p, i, false, poolPages)
		if perr != nil {
			return fail(fmt.Errorf("store: loading shard %d checkpoint: %w", i, perr))
		}
		if sl == nil {
			ps.Close()
			return fail(fmt.Errorf("store: shard checkpoint %s exists but is not a page file", p))
		}
		files = append(files, sl)
		if i < nshards {
			pagers[i] = ps
		} else {
			// Stale file from a higher shard count: its objects join the
			// merge, but the store closes now — the next checkpoint
			// deletes the file.
			extras = append(extras, ps)
		}
	}
	snap, compID, err := mergeLoaded(files)
	if err != nil {
		return fail(fmt.Errorf("store: merging shard checkpoints: %w", err))
	}
	for _, ps := range extras {
		ps.Close()
	}
	return newCatalogSeeded(snap, compID), pagers, nil
}
