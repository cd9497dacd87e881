package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/store"
	"worldsetdb/internal/value"
)

func TestSeedDeterminism(t *testing.T) {
	for name, w := range workloads {
		save := func(seed int64) []byte {
			var buf bytes.Buffer
			if err := store.Save(&buf, w.catalog(seed).Snapshot()); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		if a, b := save(7), save(7); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 built two different catalogs", name)
		}
		if bytes.Equal(save(7), save(8)) {
			t.Errorf("%s: seeds 7 and 8 built the same catalog", name)
		}
		for client := 0; client < 2; client++ {
			a, b := streamText(w, 7, client, 400), streamText(w, 7, client, 400)
			if a != b {
				t.Errorf("%s: client %d stream differs between two generations of seed 7", name, client)
			}
			if a == streamText(w, 8, client, 400) {
				t.Errorf("%s: client %d stream is the same for seeds 7 and 8", name, client)
			}
		}
	}
}

// TestMixShares checks that every round of a stream plays each entry
// of the mix exactly its share of times.
func TestMixShares(t *testing.T) {
	w := workloads["durable-insert"]
	s := newStream(w, 3, 0)
	deck := 0
	for _, sh := range w.mix {
		deck += sh.n
	}
	kinds := map[string]int{}
	for i := 0; i < 3*deck; i++ {
		o := s.next()
		kinds[o.kind]++
	}
	if kinds["count"] != 3 || kinds["txn"] != 9 {
		t.Errorf("three rounds of %d ops played %v", deck, kinds)
	}
}

// streamText renders the first n ops of a client stream, one request
// per line; a fixed seed must reproduce it byte for byte.
func streamText(w *workload, seed int64, client, n int) string {
	s := newStream(w, seed, client)
	var b strings.Builder
	for i := 0; i < n; i++ {
		o := s.next()
		for _, r := range o.reqs {
			fmt.Fprintf(&b, "%s %s [%s] %s\n", o.kind, r.endpoint, r.session, r.body)
		}
	}
	return b.String()
}

func leaf(name string, ns int64) span { return span{Name: name, DurNs: ns} }

func TestFoldSelfTime(t *testing.T) {
	root := span{Name: "stmt", DurNs: 100, Children: []span{
		leaf("compile", 10),
		{Name: "exec", DurNs: 50, Children: []span{
			leaf("rewrite.prelower", 5),
			{Name: "op:cert", DurNs: 30, Children: []span{
				{Name: "op:select", DurNs: 20, Children: []span{leaf("op:rel:Clean", 5)}},
			}},
		}},
		// Two shards' flush leaders stamped a queue+fsync pair each; the
		// pairs overlap, so they cover only the longer one (6+10), and
		// only that pair is folded.
		{Name: "commit", DurNs: 30, Children: []span{
			leaf("wal.delta", 4),
			leaf("wal.queue", 6), leaf("wal.queue", 2),
			leaf("wal.fsync", 10), leaf("wal.fsync", 12),
		}},
	}}
	l := newLedger()
	l.addStmt(&root)
	want := map[string]int64{
		"unattributed": 10, "isql.compile": 10, "isql.exec": 15, "rewrite.prelower": 5,
		"wsdexec.op": 30, "store.commit": 10, "store.wal_delta": 4,
		"store.wal_queue": 6, "store.wal_fsync": 10,
	}
	for row, ns := range want {
		if l.selfNs[row] != ns {
			t.Errorf("%s self = %d, want %d", row, l.selfNs[row], ns)
		}
	}
	if len(l.selfNs) != len(want) {
		t.Errorf("ledger rows %v, want exactly %v", l.selfNs, want)
	}
	total := int64(0)
	for _, ns := range l.selfNs {
		total += ns
	}
	if total != root.DurNs {
		t.Errorf("self times add up to %d, want the statement's %d", total, root.DurNs)
	}
	if got := map[string]int64{"cert": 10, "select": 15, "rel": 5}; l.opNs["cert"] != got["cert"] ||
		l.opNs["select"] != got["select"] || l.opNs["rel"] != got["rel"] {
		t.Errorf("operator self times %v, want %v", l.opNs, got)
	}
	if s := l.attributedShare(); s != 0.9 {
		t.Errorf("attributed share %v, want 0.9", s)
	}

	// Children that outlast their parent leave no negative self time.
	l = newLedger()
	l.addStmt(&span{Name: "stmt", DurNs: 5, Children: []span{leaf("compile", 7)}})
	if l.selfNs["unattributed"] != 0 || l.selfNs["isql.compile"] != 7 {
		t.Errorf("clamped fold = %v", l.selfNs)
	}
}

func TestReadSpansSkipsLogLines(t *testing.T) {
	log := strings.Join([]string{
		`2026/01/02 03:04:05 isqld: serving on http://127.0.0.1:1`,
		`{"name":"stmt","dur_ns":40,"attrs":{"sql":"select 1"},"children":[{"name":"compile","dur_ns":30,"attrs":{"plan-cache":"hit"}}]}`,
		`{"name":"stmt","dur_ns":20,"children":[{"name":"compile","dur_ns":5},{"name":"exec","dur_ns":5,"children":[{"name":"merge","dur_ns":0}]}]}`,
		`{"name":"stmt","dur_ns":99}`,
	}, "\n")
	l := newLedger()
	n, err := l.readSpans(strings.NewReader(log), 0, 2)
	if err != nil || n != 2 {
		t.Fatalf("readSpans = %d, %v; want 2 statements", n, err)
	}
	if l.stmts != 2 || l.totalNs != 60 || l.cacheHits != 1 || l.compiles != 2 || l.merges != 1 {
		t.Errorf("ledger after two statements: %+v", l)
	}
	if l.perStmtMs("unattributed") != 1e-5 {
		t.Errorf("unattributed per statement = %v ms, want 10ns", l.perStmtMs("unattributed"))
	}

	// Skipped roots (the setup statements) are not folded.
	l = newLedger()
	if n, err := l.readSpans(strings.NewReader(log), 1, 2); err != nil || n != 2 || l.stmts != 2 || l.totalNs != 119 {
		t.Errorf("readSpans skipping one = %d, %v, ledger %+v; want the last two statements", n, err, l)
	}
	// A log that does not yet hold all n roots folds none of them.
	l = newLedger()
	if n, err := l.readSpans(strings.NewReader(log), 2, 2); err != nil || n != 1 || l.stmts != 0 {
		t.Errorf("readSpans past the end = %d, %v, %d folded; want 1 found, none folded", n, err, l.stmts)
	}
}

func TestPromDeltaPerShard(t *testing.T) {
	before, err := parseProm(`# HELP wsdb_shard_commits_total Commits published per shard.
# TYPE wsdb_shard_commits_total counter
wsdb_shard_commits_total{shard="0"} 5
wsdb_shard_commits_total{shard="1"} 7
wsdb_wal_fsync_seconds_sum{shard="0"} 0.5
wsdb_wal_fsync_seconds_count{shard="0"} 4
wsdb_exec_op_total{kind="merge",op="group by"} 1
wsdb_catalog_version 10
`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(`wsdb_shard_commits_total{shard="0"} 9
wsdb_shard_commits_total{shard="1"} 8
wsdb_shard_commits_total{shard="2"} 3
wsdb_wal_fsync_seconds_sum{shard="0"} 1.25
wsdb_wal_fsync_seconds_count{shard="0"} 10
wsdb_exec_op_total{kind="merge",op="group by"} 4
wsdb_catalog_version 25
`)
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	for _, c := range []struct {
		name string
		want float64
	}{
		{"wsdb_shard_commits_total", 8}, // 4 + 1 + a shard that appeared with 3
		{"wsdb_wal_fsync_seconds_count", 6},
		{"wsdb_wal_fsync_seconds_sum", 0.75},
		{"wsdb_wal_fsync_seconds", 0}, // a prefix is not a metric name
		{`wsdb_exec_op_total{kind="merge",op="group by"}`, 3},
		{"wsdb_catalog_version", 15},
	} {
		if got := d.sum(c.name); got != c.want {
			t.Errorf("delta of %s = %v, want %v", c.name, got, c.want)
		}
	}
	if _, err := parseProm("wsdb_x{shard=\"0\"} notanumber\n"); err == nil {
		t.Error("malformed sample parsed")
	}
}

func TestParseAnswers(t *testing.T) {
	body := "isql> select sum(Price) as Total from LineYear\n" +
		"answer variant 1 of 2\nTotal\n-----\n1361 \n\n" +
		"answer variant 2 of 2\nTotal\n-----\n9767 \n\n"
	got, err := parseAnswers(body)
	if err != nil {
		t.Fatal(err)
	}
	r1 := relation.New(relation.NewSchema("Total"))
	r1.InsertValues(value.Int(9767))
	r2 := relation.New(relation.NewSchema("Total"))
	r2.InsertValues(value.Int(1361))
	if want := sortedSet([]string{canonRelation(r1), canonRelation(r2)}); !slices.Equal(got, want) {
		t.Errorf("parsed %q, want %q", got, want)
	}
	empty := relation.New(relation.NewSchema("Name"))
	got, err = parseAnswers("answer\nName\n----\n(empty)\n")
	if err != nil || !slices.Equal(got, []string{canonRelation(empty)}) {
		t.Errorf("empty answer parsed as %q, %v", got, err)
	}
	if _, err := parseAnswers("answer\nA  B\n----\n1\n"); err == nil {
		t.Error("a row shorter than its header parsed")
	}
}

// TestDeclaredMetrics keeps the result line and BENCHMARK.json in step.
func TestDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(doc.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, isqlbench reports %v", got, endToEnd)
	}
	if got := names(doc.PerLayer); !slices.Equal(got, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer %v, isqlbench reports %v", got, perLayer())
	}
	for _, w := range names(doc.Workloads) {
		if workloads[w] == nil {
			t.Errorf("BENCHMARK.json declares unknown workload %s", w)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, isqlbench has %d", len(doc.Workloads), len(workloads))
	}
}
