// Command isqlbench is the repository's end-to-end benchmark. It drives
// a real isqld binary over loopback HTTP from one load-generating
// process: a closed loop of one client per CPU, each on its own
// connection, sending its next I-SQL request only after the previous
// reply, as I-SQL clients do. It checks the answers and the
// durability of acknowledged writes, and prints every metric by name
// with its unit; the last line of standard output is the JSON result.
//
// Usage (run.sh builds both binaries first):
//
//	isqlbench -isqld path/to/isqld -work dir --workload census-read --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off. With --trace 1 it measures an untraced and a traced
// half-window and reports the per-layer ledger: the self time of each
// span in isqld's slow-query log, /metrics deltas and /proc counters of
// the server process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"worldsetdb/internal/isql"
	"worldsetdb/internal/store"
)

const (
	// setupRepeats launches and sets up isqld this many times per run;
	// setup_s is the median.
	setupRepeats = 5
	// recoveryCycles repeats graceful restart, recoveryCommits commits,
	// kill -9 and restart; recovery_s is the median.
	recoveryCycles = 11
	// recoveryCommits stays below isqld's default -checkpoint-every
	// (256), so every cycle replays exactly this WAL tail, long enough
	// that replay rather than process start-up dominates recovery_s.
	recoveryCommits = 200
	warmup          = time.Second
	// slices splits the window for the median throughput.
	throughputSlices = 5
	// runLimit bounds a whole run; the harness gives up before it.
	runLimit = 170 * time.Second
)

// opKeys are the wsdexec operators the workloads' statements use; the
// ledger reports one row each for them. Any operator with at least 5% of
// operator time is also named in the text report.
var opKeys = []string{"rel", "select", "project", "rename", "cert", "poss", "choice-of", "repair-by-key"}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is a run's result plus what the human-readable lines show.
type report struct {
	result
	order []string
	notes []string
}

func (r *report) set(name string, v float64, unit string) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metricValue{v, unit}
}

func main() {
	workload := flag.String("workload", "", "census-read | durable-insert | whatif-sharded")
	seed := flag.Int64("seed", 1, "seed of the generated catalog and request streams")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = report the per-layer ledger from a traced run")
	bin := flag.String("isqld", "", "isqld binary")
	work := flag.String("work", "", "directory for catalogs, data directories, logs and results")
	flag.Parse()
	w := workloads[*workload]
	if w == nil || *bin == "" || *work == "" || *seconds < 2 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "isqlbench: run exceeded %v\n", runLimit)
		killAll()
		os.Exit(3)
	})

	b := &bench{w: w, seed: *seed, bin: *bin, work: *work, window: time.Duration(*seconds) * time.Second}
	rep, err := b.run(*trace == 1)
	killAll()
	watchdog.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "isqlbench:", err)
		os.Exit(1)
	}
	host := fingerprint(*work)
	fmt.Printf("isqlbench %s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	hostJSON, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostJSON)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, name := range rep.order {
		m := rep.Metrics[name]
		fmt.Printf("%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if err := b.saveResult(host, rep, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "isqlbench: saving result:", err)
	}
	// Only the declared metrics of the mode go into the result line.
	out := rep.result
	out.Metrics = map[string]metricValue{}
	for _, name := range declared(*trace == 1) {
		m, ok := rep.Metrics[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "isqlbench: metric %s was not measured\n", name)
			os.Exit(1)
		}
		out.Metrics[name] = m
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// endToEnd and perLayer name the metrics of the result line, in the
// order BENCHMARK.json declares them.
var endToEnd = []string{"setup_s", "throughput_ops_s", "read_p50_ms", "read_p99_ms", "write_p50_ms",
	"write_p99_ms", "recovery_s", "cpu_ms_per_op", "rss_mb"}

func perLayer() []string {
	names := []string{
		"isqld.http_self_ms", "isql.parse_us", "isql.compile_ms", "isql.plan_cache_hit_ratio",
		"isql.exec_ms", "isql.bounded_ms", "rewrite.prelower_ms", "rewrite.expanded_per_compile",
		"rewrite.prune_ratio", "wsdexec.op_ms",
	}
	for _, k := range opKeys {
		names = append(names, "wsdexec.op."+k+"_ms")
	}
	return append(names,
		"wsdexec.merges_per_stmt", "wsd.fallback_ms", "wsd.fallbacks",
		"store.commit_ms", "store.wal_delta_ms", "store.wal_queue_ms", "store.wal_fsync_ms",
		"store.commits_per_fsync", "store.2pc_stage_ms", "store.2pc_marker_ms", "store.conflict_ratio",
		"store.write_amp", "store.disk_mb", "page.checkpoints", "page.pages_written",
		"page.bytes_per_checkpoint", "bufpool.hit_ratio", "bufpool.misses", "bufpool.evictions",
		"recovery.tail_records", "recovery.wal_bytes", "recovery.ms_per_record",
		"stmt_ms", "unattributed_ms", "attributed_share", "trace_overhead",
		"error_rate", "read_samples", "write_samples", "isql.subquery_dml_failed")
}

func declared(traced bool) []string {
	if traced {
		return perLayer()
	}
	return endToEnd
}

// bench is one run of one workload.
type bench struct {
	w       *workload
	seed    int64
	bin     string
	work    string
	window  time.Duration
	catalog string
	seed0   *store.Catalog // the generated seed catalog
	ref     *referee
	// seedRows is each table's row count in the generated catalog.
	seedRows map[string]int
	wrong    []string
}

// instance is one isqld configuration that can be restarted in place.
type instance struct {
	srv     *server
	addr    string
	dataDir string
	logPath string
	args    []string
}

func (b *bench) fail(format string, args ...any) {
	b.wrong = append(b.wrong, fmt.Sprintf(format, args...))
}

func (b *bench) run(traced bool) (*report, error) {
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	for _, old := range []string{"catalog.wsd", "data-0", "data-1", "data-2", "data-3", "data-4", "data-traced", "logs"} {
		os.RemoveAll(filepath.Join(b.work, old))
	}
	if err := os.MkdirAll(filepath.Join(b.work, "logs"), 0o755); err != nil {
		return nil, err
	}
	if err := b.prepare(); err != nil {
		return nil, err
	}
	rep := &report{result: result{Metrics: map[string]metricValue{}}}

	// Set-up, several times: launch, /healthz, setup statements.
	var setups []float64
	var inst *instance
	for i := 0; i < setupRepeats; i++ {
		in, d, err := b.launch(fmt.Sprintf("data-%d", i), false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRepeats-1 {
			if err := in.srv.stop(); err != nil {
				return nil, err
			}
		}
		inst = in
	}
	rep.set("setup_s", median(setups), "s")

	window := b.window
	if traced {
		window /= 2
	}
	ph, err := b.measure(inst, window, false)
	if err != nil {
		return nil, err
	}
	b.endToEnd(rep, ph)
	if traced {
		untracedTput := rep.Metrics["throughput_ops_s"].Value
		if err := inst.srv.stop(); err != nil {
			return nil, err
		}
		if inst, _, err = b.launch("data-traced", true); err != nil {
			return nil, err
		}
		tph, err := b.measure(inst, window, true)
		if err != nil {
			return nil, err
		}
		if err := b.layers(rep, inst, tph, stmtCount(b.w.setup)); err != nil {
			return nil, err
		}
		rep.set("trace_overhead", untracedTput/tph.throughput(throughputSlices), "ratio")
		ph = tph
	}
	if err := b.subqueryProbe(rep, inst); err != nil {
		return nil, err
	}
	acks := newAckState()
	for _, cr := range ph.runs {
		acks.merge(cr.acks)
	}
	if err := b.recovery(rep, inst, acks); err != nil {
		return nil, err
	}
	if err := inst.srv.stop(); err != nil {
		return nil, err
	}
	disk := 0.0
	if b.w.durable {
		n, err := dirBytes(inst.dataDir, nil)
		if err != nil {
			return nil, err
		}
		disk = float64(n) / 1e6
	}
	rep.set("store.disk_mb", disk, "MB")

	rep.Correct = len(b.wrong) == 0
	for i, msg := range b.wrong {
		if i == 10 {
			rep.notes = append(rep.notes, fmt.Sprintf("WRONG: ... and %d more", len(b.wrong)-i))
			break
		}
		rep.notes = append(rep.notes, "WRONG: "+msg)
	}
	return rep, nil
}

// prepare generates the seed catalog file and the reference database.
func (b *bench) prepare() error {
	cat := b.w.catalog(b.seed)
	b.catalog = filepath.Join(b.work, "catalog.wsd")
	if err := store.SaveFile(b.catalog, cat.Snapshot()); err != nil {
		return err
	}
	b.seed0 = cat
	db := cat.Snapshot().DB
	b.seedRows = map[string]int{}
	for i, name := range db.Names {
		b.seedRows[name] = db.Certain[i].Len()
	}
	return nil
}

// referee builds the reference database on first use.
func (b *bench) referee() (*referee, error) {
	if b.ref == nil {
		db, err := referenceDB(b.seed0)
		if err != nil {
			return nil, err
		}
		b.ref = &referee{db: db, memo: map[string][]string{}}
	}
	return b.ref, nil
}

func (b *bench) args(dataDir string, traced bool) []string {
	args := []string{"-load", b.catalog}
	if b.w.durable {
		args = append(args, "-wal", dataDir)
	}
	if b.w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(b.w.shards))
	}
	if b.w.poolPages > 0 {
		args = append(args, "-pool-pages", strconv.Itoa(b.w.poolPages))
	}
	if traced {
		// Every statement is traced; a 1ns threshold logs them all.
		args = append(args, "-slow-query", "1ns")
	}
	return args
}

// launch starts isqld on a fresh data directory and runs the setup
// statements; the duration runs from process launch to the last setup
// reply.
func (b *bench) launch(name string, traced bool) (*instance, time.Duration, error) {
	dataDir := filepath.Join(b.work, name)
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, 0, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	in := &instance{addr: addr, dataDir: dataDir, logPath: filepath.Join(b.work, "logs", name+".log"),
		args: b.args(dataDir, traced)}
	t0 := time.Now()
	if err := in.start(b.bin, b.work); err != nil {
		return nil, 0, err
	}
	c := newClient(in.srv.base)
	defer c.close()
	for _, r := range b.w.setup {
		if _, err := c.mustOK(r); err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
	}
	return in, time.Since(t0), nil
}

func (in *instance) start(bin, dir string) error {
	srv, err := startServer(bin, dir, in.addr, in.logPath, in.args)
	if err != nil {
		return err
	}
	in.srv = srv
	return srv.waitHealthy(60 * time.Second)
}

// measure runs the closed loop and then checks what the clients saw.
func (b *bench) measure(in *instance, window time.Duration, keepTexts bool) (*phase, error) {
	streams := make([]*stream, clients())
	for i := range streams {
		streams[i] = newStream(b.w, b.seed, i)
	}
	ph, err := runPhase(in.srv, streams, warmup, window, keepTexts)
	if err != nil {
		return nil, err
	}
	acks := newAckState()
	for _, cr := range ph.runs {
		acks.merge(cr.acks)
		b.wrong = append(b.wrong, cr.mismatch...)
		for _, rc := range cr.refs {
			ref, err := b.referee()
			if err != nil {
				return nil, err
			}
			want, err := ref.answers(rc.ref)
			if err != nil {
				return nil, fmt.Errorf("reference answer for %q: %w", rc.sql, err)
			}
			got, err := parseAnswers(rc.body)
			if err != nil || !slices.Equal(got, want) {
				b.fail("%q answered %q, reference %q", rc.sql, got, want)
			}
		}
	}
	return ph, b.checkCounts(in, acks)
}

// clients is the closed loop's width: one client per CPU.
func clients() int { return runtime.NumCPU() }

// checkCounts compares each written table's row count with the seed
// rows plus the acknowledged inserts.
func (b *bench) checkCounts(in *instance, acks *ackState) error {
	c := newClient(in.srv.base)
	defer c.close()
	for table, rows := range acks.acked {
		body, err := c.mustOK(request{"/exec", fmt.Sprintf("select count(*) as N from %s;", table), ""})
		if err != nil {
			return err
		}
		want := b.seedRows[table] + len(rows)
		got, err := parseAnswers(body)
		if err != nil || !slices.Equal(got, singleValue("N", strconv.Itoa(want))) {
			b.fail("%s holds %q rows, want %d (seed %d + %d acknowledged)", table, got, want, b.seedRows[table], len(rows))
		}
	}
	return nil
}

// subqueryProbe sends the subquery DELETE and UPDATE the bounded
// evaluator does not handle yet, outside the measured loop: a
// statement-level failure is counted, not a harness error. The
// subquery selects no key (every Id is positive), so the statements
// change nothing once they succeed either; the probed table's row count
// must not move.
func (b *bench) subqueryProbe(rep *report, in *instance) error {
	failed := 0.0
	if len(b.w.tables) >= 2 {
		c := newClient(in.srv.base)
		defer c.close()
		t0, t1 := b.w.tables[0], b.w.tables[1]
		count := request{"/exec", fmt.Sprintf("select count(*) as N from %s;", t0), ""}
		before, err := c.mustOK(count)
		if err != nil {
			return err
		}
		for _, sql := range []string{
			fmt.Sprintf("delete from %s where Id in (select Id from %s where Id < 0);", t0, t1),
			fmt.Sprintf("update %s set Val = 'x' where Id in (select Id from %s where Id < 0);", t0, t1),
		} {
			status, _, err := c.send(request{"/exec", sql, ""})
			if err != nil {
				return err
			}
			if status != 200 {
				failed++
			}
		}
		after, err := c.mustOK(count)
		if err != nil {
			return err
		}
		if after != before {
			b.fail("subquery DML on an empty key set changed %s: %q, before %q", t0, after, before)
		}
	}
	rep.set("isql.subquery_dml_failed", failed, "count")
	return nil
}

// endToEnd fills the user-visible metrics of an untraced phase.
func (b *bench) endToEnd(rep *report, ph *phase) {
	attempted, failed := ph.attempted()
	rep.Attempted, rep.Failed = attempted, failed
	reads := ph.latencies(func(s sample) bool { return !s.write })
	writes := ph.latencies(func(s sample) bool { return s.write })
	for _, k := range ph.kinds() {
		lat := ph.latencies(func(s sample) bool { return s.kind == k })
		rep.notes = append(rep.notes, fmt.Sprintf("op %-10s n=%-6d p50=%.3fms p99=%.3fms", k, len(lat), quantile(lat, 0.5), quantile(lat, 0.99)))
	}
	rep.set("throughput_ops_s", ph.throughput(throughputSlices), "ops/s")
	rep.notes = append(rep.notes, fmt.Sprintf("throughput per slice: %.0f ops/s", ph.sliceRates))
	rep.set("read_p50_ms", quantile(reads, 0.50), "ms")
	rep.set("read_p99_ms", quantile(reads, 0.99), "ms")
	rep.set("write_p50_ms", quantile(writes, 0.50), "ms")
	rep.set("write_p99_ms", quantile(writes, 0.99), "ms")
	rep.set("read_samples", float64(len(reads)), "count")
	rep.set("write_samples", float64(len(writes)), "count")
	errRate := 0.0
	if attempted > 0 {
		errRate = float64(failed) / float64(attempted)
	}
	rep.set("error_rate", errRate, "ratio")
	if n := ph.completed(); n > 0 {
		rep.set("cpu_ms_per_op", float64(ph.after.cpu-ph.before.cpu)/float64(time.Millisecond)/float64(n), "ms")
	}
	rep.set("rss_mb", median(ph.rssMB), "MB")
}

// stmtCount is the number of statement roots isqld logs for reqs: one
// per statement of an /exec script, one per /execute call; /prepare
// only registers statements and runs none.
func stmtCount(reqs []request) int {
	n := 0
	for _, r := range reqs {
		switch r.endpoint {
		case "/execute":
			n++
		case "/exec":
			parsed, _ := isql.ParseScript(r.body)
			n += len(parsed)
		}
	}
	return n
}

// layers folds a traced phase into the per-layer ledger. The server's
// log first holds the roots of its setupStmts setup statements.
func (b *bench) layers(rep *report, in *instance, ph *phase, setupStmts int) error {
	// Client-side request time and parse time, over every request of
	// the traced phase; the span log holds one root per statement of
	// those requests.
	var reqs, stmts int
	var reqTime, parseTime time.Duration
	for _, cr := range ph.runs {
		reqs += cr.reqs
		reqTime += cr.reqTime
		for _, r := range cr.texts {
			t := time.Now()
			if r.endpoint == "/execute" {
				isql.ParseExecuteCall(r.body)
			} else {
				isql.ParseScript(r.body)
			}
			parseTime += time.Since(t)
		}
		stmts += stmtCount(cr.texts)
	}
	l := newLedger()
	if err := l.readLog(in.logPath, setupStmts, stmts); err != nil {
		return err
	}
	if reqs == 0 || l.stmts == 0 {
		return fmt.Errorf("traced phase logged %d statements for %d requests", l.stmts, reqs)
	}
	httpSelf := float64(reqTime-parseTime-time.Duration(l.totalNs)) / float64(reqs) / 1e6
	rep.set("isqld.http_self_ms", httpSelf, "ms")
	rep.set("isql.parse_us", float64(parseTime)/float64(reqs)/1e3, "us")
	for _, row := range []string{"isql.compile", "isql.exec", "isql.bounded", "rewrite.prelower", "wsdexec.op",
		"wsd.fallback", "store.commit", "store.wal_delta", "store.wal_queue", "store.wal_fsync",
		"store.2pc_stage", "store.2pc_marker"} {
		rep.set(row+"_ms", l.perStmtMs(row), "ms")
	}
	for _, k := range opKeys {
		rep.set("wsdexec.op."+k+"_ms", float64(l.opNs[k])/float64(l.stmts)/1e6, "ms")
	}
	for op, ns := range l.opNs {
		if share := float64(ns) / float64(l.selfNs["wsdexec.op"]); share >= 0.05 {
			rep.notes = append(rep.notes, fmt.Sprintf("wsdexec operator %s: %.0f%% of operator time", op, 100*share))
		}
	}
	rep.set("stmt_ms", float64(l.totalNs)/float64(l.stmts)/1e6, "ms")
	rep.set("unattributed_ms", l.perStmtMs("unattributed"), "ms")
	rep.set("attributed_share", 100*l.attributedShare(), "%")
	for row, ns := range l.selfNs {
		if strings.HasPrefix(row, "other.") {
			rep.notes = append(rep.notes, fmt.Sprintf("span %s: %.4f ms/stmt (no ledger row)", row, float64(ns)/float64(l.stmts)/1e6))
		}
	}
	rep.set("wsdexec.merges_per_stmt", float64(l.merges)/float64(l.stmts), "count")
	hit := 0.0
	if l.compiles > 0 {
		hit = float64(l.cacheHits) / float64(l.compiles)
	}
	rep.set("isql.plan_cache_hit_ratio", hit, "ratio")

	d := ph.mAfter.delta(ph.mBefore)
	expanded, pruned := d.sum("wsdb_rewrite_expanded_total"), d.sum("wsdb_rewrite_pruned_total")
	rep.set("rewrite.expanded_per_compile", ratio(expanded, float64(l.compileMisses)), "count")
	rep.set("rewrite.prune_ratio", ratio(pruned, expanded+pruned), "ratio")
	rep.set("wsd.fallbacks", d.sum(`wsdb_exec_path_total{path="fallback"}`), "count")
	commits := d.sum("wsdb_catalog_version")
	fsyncs := d.sum("wsdb_wal_fsync_seconds_count")
	rep.set("store.commits_per_fsync", ratio(commits, fsyncs), "ratio")
	rep.set("store.conflict_ratio", ratio(d.sum("wsdb_shard_conflicts_total"), commits), "ratio")
	ckpts := d.sum("wsdb_checkpoints_total")
	rep.set("page.checkpoints", ckpts, "count")
	rep.set("page.pages_written", d.sum("wsdb_checkpoint_pages_written_total"), "count")
	rep.set("page.bytes_per_checkpoint", ratio(d.sum("wsdb_checkpoint_bytes_sum"), d.sum("wsdb_checkpoint_bytes_count")), "B")

	var valueBytes int64
	for _, cr := range ph.runs {
		valueBytes += cr.acks.valueBytes
	}
	rep.set("store.write_amp", ratio(float64(ph.last.writeBytes-ph.first.writeBytes), float64(valueBytes)), "ratio")
	return nil
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = k * x
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// recovery measures restart after kill -9 and, on a durable catalog,
// checks that every acknowledged write survived and no rolled-back one
// appeared. Each cycle: graceful restart (final checkpoint), a fixed
// WAL tail of recoveryCommits single-statement commits (deleting the
// previous cycle's rows, then inserting new ones) plus one rolled-back
// transaction, kill -9, restart. An in-memory server has nothing to
// recover; its cycles time the kill and the restart from the seed
// catalog.
//
// The buffer pool reads pages only while a process loads its page
// files, so the bufpool rows come from a /metrics scrape right after
// each restart: a fresh process's counters cover exactly the load and
// the WAL replay.
func (b *bench) recovery(rep *report, in *instance, acks *ackState) error {
	rs := newStream(b.w, b.seed, clients()) // a key range no load client uses
	var secs, tails, walBytes, perRecord, hitRatios, misses, evictions []float64
	for k := 0; k < recoveryCycles; k++ {
		if b.w.durable {
			if err := in.srv.stop(); err != nil {
				return err
			}
			if err := in.start(b.bin, b.work); err != nil {
				return err
			}
			c := newClient(in.srv.base)
			// The previous cycle's rows are deleted first, so every cycle
			// replays the same tail over the same table sizes.
			var tail []op
			for _, t := range b.w.tables {
				lo := int64(rs.client+1) * keyStride
				tail = append(tail, op{reqs: []request{{"/exec",
					fmt.Sprintf("delete from %s where Id >= %d and Id <= %d;", t, lo, lo+rs.seq), ""}},
					expire: &keyRange{t, lo, lo + rs.seq}})
			}
			for i := len(tail); i < recoveryCommits; i++ {
				r := rs.newRow(b.w.tables[i%len(b.w.tables)])
				tail = append(tail, op{reqs: []request{{"/exec", r.insertSQL(rs.client), ""}}, commits: []row{r}})
			}
			for i := range tail {
				if _, err := c.mustOK(tail[i].reqs[0]); err != nil {
					c.close()
					return err
				}
				acks.apply(&tail[i])
			}
			r := rs.newRow(b.w.tables[0])
			token := fmt.Sprintf("recovery-%d", k)
			_, err := c.mustOK(request{"/exec", "begin; " + r.insertSQL(rs.client), token})
			if err == nil {
				_, err = c.mustOK(request{"/exec", "rollback;", token})
			}
			c.close()
			if err != nil {
				return err
			}
			acks.apply(&op{rollbacks: []row{r}})
			m, err := in.srv.scrape()
			if err != nil {
				return err
			}
			tails = append(tails, m.sum("wsdb_wal_tail_records"))
			wb, err := dirBytes(in.dataDir, func(name string) bool { return strings.HasPrefix(name, "wal") })
			if err != nil {
				return err
			}
			walBytes = append(walBytes, float64(wb))
		}
		t0 := time.Now()
		in.srv.kill()
		if err := in.start(b.bin, b.work); err != nil {
			return err
		}
		d := time.Since(t0).Seconds()
		secs = append(secs, d)
		m, err := in.srv.scrape()
		if err != nil {
			return err
		}
		h, miss := m.sum("wsdb_bufpool_hits_total"), m.sum("wsdb_bufpool_misses_total")
		hitRatios = append(hitRatios, ratio(h, h+miss))
		misses = append(misses, miss)
		evictions = append(evictions, m.sum("wsdb_bufpool_evictions_total"))
		if len(tails) > 0 && tails[len(tails)-1] > 0 {
			perRecord = append(perRecord, 1000*d/tails[len(tails)-1])
		}
		if b.w.durable {
			if err := b.checkCounts(in, acks); err != nil {
				return err
			}
		}
	}
	rep.set("recovery_s", median(secs), "s")
	rep.notes = append(rep.notes, fmt.Sprintf("recovery per cycle: %.1f ms", scale(secs, 1000)))
	rep.set("recovery.tail_records", median(tails), "count")
	rep.set("recovery.wal_bytes", median(walBytes), "B")
	rep.set("recovery.ms_per_record", median(perRecord), "ms")
	rep.set("bufpool.hit_ratio", median(hitRatios), "ratio")
	rep.set("bufpool.misses", median(misses), "count")
	rep.set("bufpool.evictions", median(evictions), "count")
	if b.w.durable {
		return b.checkContents(in, acks)
	}
	return nil
}

// checkContents reads the clients' rows of every written table back
// after the last recovery: exactly the acknowledged rows, with their
// values, none of the rolled-back or expired ones. (checkCounts covers
// the seed rows.)
func (b *bench) checkContents(in *instance, acks *ackState) error {
	c := newClient(in.srv.base)
	defer c.close()
	for _, table := range b.w.tables {
		body, err := c.mustOK(request{"/exec", fmt.Sprintf("select certain Id, Val from %s where Id >= %d;", table, keyStride), ""})
		if err != nil {
			return err
		}
		got, err := parseAnswers(body)
		if err != nil {
			return err
		}
		var rows []string
		for id, v := range acks.acked[table] {
			rows = append(rows, fmt.Sprintf("%d|%s", id, v))
		}
		wantCanon := canon([]string{"Id", "Val"}, rows)
		if len(got) != 1 || got[0] != wantCanon {
			lost, extra := diffRows(got, rows)
			b.fail("%s after recovery: %d acknowledged rows missing or changed, %d unexpected rows", table, lost, extra)
		}
		for id := range acks.rolled[table] {
			if len(got) == 1 && strings.Contains("\n"+got[0]+"\n", fmt.Sprintf("\n%d|", id)) {
				b.fail("%s.%d was rolled back but is present after recovery", table, id)
			}
		}
	}
	return nil
}

// diffRows counts wanted rows absent from the answer and answer rows
// not wanted.
func diffRows(got []string, want []string) (lost, extra int) {
	have := map[string]bool{}
	if len(got) == 1 {
		for _, r := range strings.Split(got[0], "\n")[1:] {
			if r != "" {
				have[r] = true
			}
		}
	}
	for _, r := range want {
		if !have[r] {
			lost++
		}
		delete(have, r)
	}
	return lost, len(have)
}
