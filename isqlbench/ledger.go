package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// span is one node of a slow-query log line, as isqld serializes it.
// The log carries durations but no start times.
type span struct {
	Name     string            `json:"name"`
	DurNs    int64             `json:"dur_ns"`
	Attrs    map[string]string `json:"attrs"`
	Children []span            `json:"children"`
}

// ledger accumulates per-layer self time over statement span trees.
type ledger struct {
	stmts   int
	totalNs int64
	// selfNs is self time keyed by layer row (see layerOf).
	selfNs map[string]int64
	// opNs is wsdexec operator self time keyed by operator.
	opNs          map[string]int64
	compiles      int
	compileMisses int
	cacheHits     int
	merges        int
}

func newLedger() *ledger {
	return &ledger{selfNs: map[string]int64{}, opNs: map[string]int64{}}
}

// readSpans skips the first skip statement roots ({"name":"stmt",...})
// found in an isqld log and folds the next n; other lines are server
// log output. It reports how many of the n it found, and folds none
// unless it found all of them.
func (l *ledger) readSpans(r io.Reader, skip, n int) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var roots []span
	seen := 0
	for len(roots) < n && sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var root span
		if err := json.Unmarshal(line, &root); err != nil {
			// The writer may be mid-line; the caller retries.
			return len(roots), nil
		}
		if root.Name != "stmt" {
			continue
		}
		if seen++; seen > skip {
			roots = append(roots, root)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if len(roots) == n {
		for i := range roots {
			l.addStmt(&roots[i])
		}
	}
	return len(roots), nil
}

// readLog reads the log from its start, skips the first skip
// statement roots and folds the next n, waiting for the server's log
// pipe to deliver them. Counting roots rather than taking a file offset
// keeps late-arriving lines of earlier statements out of the fold.
func (l *ledger) readLog(path string, skip, n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		got, err := l.readSpans(f, skip, n)
		f.Close()
		if err != nil || got == n {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("span log holds %d of the traced phase's %d statements", got, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (l *ledger) addStmt(root *span) {
	l.stmts++
	l.totalNs += root.DurNs
	l.fold(root)
}

// layerOf maps a span name to its ledger row.
func layerOf(name string) string {
	switch {
	case name == "stmt":
		return "unattributed"
	case name == "compile":
		return "isql.compile"
	case name == "exec":
		return "isql.exec"
	case name == "exec.bounded":
		return "isql.bounded"
	case name == "rewrite.prelower":
		return "rewrite.prelower"
	case strings.HasPrefix(name, "op:"):
		return "wsdexec.op"
	case name == "fallback" || name == "expand" || name == "refactor":
		return "wsd.fallback"
	case name == "commit":
		return "store.commit"
	case name == "wal.delta":
		return "store.wal_delta"
	case name == "wal.queue":
		return "store.wal_queue"
	case name == "wal.fsync":
		return "store.wal_fsync"
	case name == "txn.2pc.stage":
		return "store.2pc_stage"
	case name == "txn.2pc.marker":
		return "store.2pc_marker"
	}
	return "other." + name
}

// opKey groups operator spans: every base-relation scan is "rel".
func opKey(name string) string {
	op := strings.TrimPrefix(name, "op:")
	if strings.HasPrefix(op, "rel:") {
		return "rel"
	}
	return op
}

// fold adds s's self time and recurses. Self time is the span's
// duration minus the time its children cover. Children run one after
// another, except the wal.queue + wal.fsync pairs that group-commit
// flush leaders attach: each shard's leader stamps its own pair onto
// the committer's span, and pairs of different shards overlap in time.
// Those pairs cover only the longest pair's time, and only that pair —
// the one the commit waited for — is folded into the ledger.
func (l *ledger) fold(s *span) {
	switch s.Name {
	case "compile":
		l.compiles++
		switch s.Attrs["plan-cache"] {
		case "hit":
			l.cacheHits++
		default:
			l.compileMisses++
		}
	case "merge":
		l.merges++
	}
	seq, critical := splitWALPairs(s.Children)
	covered := int64(0)
	for i := range seq {
		covered += seq[i].DurNs
	}
	for _, c := range critical {
		covered += c.DurNs
	}
	self := s.DurNs - covered
	if self < 0 {
		self = 0
	}
	row := layerOf(s.Name)
	l.selfNs[row] += self
	if row == "wsdexec.op" {
		l.opNs[opKey(s.Name)] += self
	}
	for i := range seq {
		l.fold(&seq[i])
	}
	for i := range critical {
		l.fold(&critical[i])
	}
}

// splitWALPairs separates a span's sequential children from its
// wal.queue/wal.fsync pairs and returns the longest pair. Each leader
// appends its queue span right before its fsync span, so the i-th
// queue pairs with the i-th fsync.
func splitWALPairs(children []span) (seq, critical []span) {
	var queues, fsyncs []span
	for _, c := range children {
		switch c.Name {
		case "wal.queue":
			queues = append(queues, c)
		case "wal.fsync":
			fsyncs = append(fsyncs, c)
		default:
			seq = append(seq, c)
		}
	}
	var best int64 = -1
	for i := 0; i < len(queues) && i < len(fsyncs); i++ {
		if d := queues[i].DurNs + fsyncs[i].DurNs; d > best {
			best = d
			critical = []span{queues[i], fsyncs[i]}
		}
	}
	return seq, critical
}

// perStmtMs is a ledger row's mean self time per statement, in ms.
func (l *ledger) perStmtMs(row string) float64 {
	if l.stmts == 0 {
		return 0
	}
	return float64(l.selfNs[row]) / float64(l.stmts) / 1e6
}

// attributedShare is the share of statement time spent in named spans
// below the root.
func (l *ledger) attributedShare() float64 {
	if l.totalNs == 0 {
		return 0
	}
	return 1 - float64(l.selfNs["unattributed"])/float64(l.totalNs)
}
