package main

import (
	"fmt"
	"math/rand"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/ra"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/store"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsa"
)

// Catalog sizes. The census keeps 40 duplicated SSNs in every
// workload, so the repaired Clean table represents 2^40 worlds; the
// what-if region LineYear (Lineitem choice of Year) has 4.
const (
	censusRows  = 2000
	censusDups  = 40
	ssnBase     = 100000
	products    = 100
	quantities  = 4
	years       = 4
	durableRows = 500
	durableDups = 10
	// keyStride separates the row-id ranges of the clients, so every
	// generated key is unique without coordination.
	keyStride = 1_000_000_000
	// shardTables is the number of insert targets of whatif-sharded;
	// their names hash across all four shards.
	shardTables = 8
	// seedEvents and seedTRows are the rows each Id/Client/Val table
	// starts with, owned by no client (ids below keyStride).
	seedEvents = 1000
	seedTRows  = 100
	// Retention: a client's expire op deletes its rows of a table except
	// the newest keep*, so tables stay at a steady size and a run's cost
	// per op does not drift with its length.
	keepEvents = 150
	keepTRows  = 60
	keepCensus = 200
	// whatifPoolPages is whatif-sharded's buffer pool per shard: 4 pages
	// of 8 KiB, several times smaller than each shard's share of the
	// catalog.
	whatifPoolPages = 4
)

var cities = []string{"NYC", "LA", "SF", "Austin", "Boston"}

// request is one HTTP call of the I-SQL protocol.
type request struct {
	endpoint string // "/exec" or "/execute"
	body     string
	session  string // X-ISQL-Session token; empty for a throwaway session
}

// row is one inserted tuple of an Id/Client/Val table.
type row struct {
	table string
	id    int64
	val   string
}

// op is one closed-loop operation: one or more requests sent in order
// on one client connection, timed together as the client sees them.
type op struct {
	kind  string // mix label, e.g. "insert", "adhoc", "aggregate"
	write bool
	reqs  []request
	// abort is sent when a request of a multi-request transaction fails,
	// so a sticky session never keeps a half-done transaction open.
	abort *request
	// commits are the rows the op commits when every request succeeds;
	// rollbacks the rows it inserts and then rolls back.
	commits   []row
	rollbacks []row
	// ref is the in-process reference for a certain/possible/aggregate
	// answer; pointRead and count check answers against acknowledged
	// writes.
	ref       *refQuery
	pointRead *row
	count     *countCheck
	// expire, when acknowledged, deletes the client's rows of a table
	// with keys in [lo, hi].
	expire *keyRange
}

type keyRange struct {
	table  string
	lo, hi int64
}

// countCheck asks how many rows of table carry Client = client.
type countCheck struct {
	table  string
	client int
}

// valueBytes is the size of the row values an op inserts, counted as
// their decimal or string bytes.
func (o *op) valueBytes() int {
	n := 0
	for _, r := range o.commits {
		n += r.bytes()
	}
	for _, r := range o.rollbacks {
		n += r.bytes()
	}
	return n
}

func (r row) bytes() int {
	return len(fmt.Sprint(r.id)) + len(r.val) + 2 // Client is at most two digits
}

func (r row) insertSQL(client int) string {
	return fmt.Sprintf("insert into %s values (%d, %d, '%s');", r.table, r.id, client, r.val)
}

// workload describes one traffic mix: how isqld is started, the
// catalog it loads, the statements run before measuring and the
// per-client request streams.
type workload struct {
	name    string
	durable bool
	shards  int
	// poolPages is passed as -pool-pages when non-zero.
	poolPages int
	// catalog builds the seed catalog saved as the .wsd isqld loads.
	catalog func(seed int64) *store.Catalog
	// setup runs, in order, once isqld answers /healthz.
	setup []request
	// tables are the Id/Client/Val tables the mix inserts into.
	tables []string
	// mix lists the op generators with their share of every deck: each
	// client plays the mix in shuffled rounds of exactly these counts,
	// so no run draws more of the costly ops than another.
	mix []share
}

// share is one entry of a workload mix.
type share struct {
	n   int
	gen func(s *stream) op
}

var workloads = map[string]*workload{
	"census-read":    censusRead(),
	"durable-insert": durableInsert(),
	"whatif-sharded": whatifSharded(),
}

// stream is one client's deterministic op sequence. It remembers the
// rows it committed so far, so point reads target keys the client has
// already written.
type stream struct {
	w      *workload
	client int
	rng    *rand.Rand
	seq    int64
	tokens int
	deck   []int
	// written holds every committed row in generation (= key) order,
	// per table; live[table] indexes the first row not yet expired.
	written map[string][]row
	live    map[string]int
	expires int
}

func newStream(w *workload, seed int64, client int) *stream {
	return &stream{
		w:       w,
		client:  client,
		rng:     rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + 1)),
		written: map[string][]row{},
		live:    map[string]int{},
	}
}

func (s *stream) next() op {
	if len(s.deck) == 0 {
		for i, sh := range s.w.mix {
			for j := 0; j < sh.n; j++ {
				s.deck = append(s.deck, i)
			}
		}
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	i := s.deck[0]
	s.deck = s.deck[1:]
	return s.w.mix[i].gen(s)
}

func (s *stream) newRow(table string) row {
	s.seq++
	return row{
		table: table,
		id:    int64(s.client+1)*keyStride + s.seq,
		val:   fmt.Sprintf("v%08x", s.rng.Uint32()),
	}
}

func (s *stream) insert(table string) op {
	r := s.newRow(table)
	s.written[table] = append(s.written[table], r)
	return op{kind: "insert", write: true, reqs: []request{{"/exec", r.insertSQL(s.client), ""}}, commits: []row{r}}
}

func (s *stream) liveRows(table string) []row { return s.written[table][s.live[table]:] }

// keyColumn names the key a table's generated ids live in.
func keyColumn(table string) string {
	if table == "Census" {
		return "SSN"
	}
	return "Id"
}

// expire deletes, in one range DELETE, the client's rows of table
// except the newest keep. Before the client has written more than
// keep rows it inserts instead.
func (s *stream) expire(table string, keep int, insert func() op) op {
	rows := s.liveRows(table)
	if len(rows) <= keep {
		return insert()
	}
	lo, hi := int64(s.client+1)*keyStride, rows[len(rows)-keep-1].id
	s.live[table] += len(rows) - keep
	col := keyColumn(table)
	sql := fmt.Sprintf("delete from %s where %s >= %d and %s <= %d;", table, col, lo, col, hi)
	return op{kind: "expire", write: true, reqs: []request{{"/exec", sql, ""}}, expire: &keyRange{table, lo, hi}}
}

// pointRead reads back a row this client committed earlier, through a
// prepared statement or an ad-hoc select.
func (s *stream) pointRead(table string, prepared string) (op, bool) {
	rows := s.liveRows(table)
	if len(rows) == 0 {
		return op{}, false
	}
	r := rows[s.rng.Intn(len(rows))]
	if prepared != "" && s.rng.Intn(2) == 0 {
		return op{kind: "point-read", reqs: []request{{"/execute", fmt.Sprintf("%s(%d)", prepared, r.id), ""}}, pointRead: &r}, true
	}
	sql := fmt.Sprintf("select certain Val from %s where Id = %d;", table, r.id)
	return op{kind: "point-read", reqs: []request{{"/exec", sql, ""}}, pointRead: &r}, true
}

// ssn draws a census key; a quarter of the draws hit a duplicated SSN,
// whose certain answer is empty and possible answer has two names.
func (s *stream) ssn() int64 {
	if s.rng.Intn(4) == 0 {
		return ssnBase + int64(s.rng.Intn(censusDups))
	}
	return ssnBase + int64(censusDups+s.rng.Intn(censusRows-censusDups))
}

// cleanLookup is a certain/possible lookup on the 2^40-world Clean,
// prepared (with a fresh $1) or ad hoc (with fresh literals).
func (s *stream) cleanLookup() op {
	x := s.ssn()
	switch s.rng.Intn(4) {
	case 0:
		return op{kind: "execute", reqs: []request{{"/execute", fmt.Sprintf("cert_name(%d)", x), ""}},
			ref: lookupRef(wsa.CloseCert, x, "Name")}
	case 1:
		return op{kind: "execute", reqs: []request{{"/execute", fmt.Sprintf("poss_name(%d)", x), ""}},
			ref: lookupRef(wsa.ClosePoss, x, "Name")}
	case 2:
		return op{kind: "adhoc", reqs: []request{{"/exec", fmt.Sprintf("select certain POB from Clean where SSN = %d;", x), ""}},
			ref: lookupRef(wsa.CloseCert, x, "POB")}
	default:
		return op{kind: "adhoc", reqs: []request{{"/exec", fmt.Sprintf("select possible Name, POW from Clean where SSN = %d;", x), ""}},
			ref: lookupRef(wsa.ClosePoss, x, "Name", "POW")}
	}
}

// aggregate is a bounded aggregate over the 4-world what-if region:
// one answer variant per world.
func (s *stream) aggregate() op {
	if s.rng.Intn(2) == 0 {
		p := fmt.Sprintf("P%04d", s.rng.Intn(products))
		return op{kind: "aggregate", reqs: []request{{"/exec",
			fmt.Sprintf("select sum(Price) as Total from LineYear where Product = '%s';", p), ""}},
			ref: sumRef(p)}
	}
	return op{kind: "aggregate", reqs: []request{{"/exec",
		"select Year, count(*) as N, sum(Price) as Total from LineYear group by Year;", ""}},
		ref: yearTotalsRef()}
}

// idTable is an Id/Client/Val table holding n seed rows of client 99.
func idTable(n int, rng *rand.Rand) *relation.Relation {
	r := relation.New(relation.NewSchema("Id", "Client", "Val"))
	for i := 1; i <= n; i++ {
		r.InsertValues(value.Int(int64(i)), value.Int(99), value.Str(fmt.Sprintf("s%08x", rng.Uint32())))
	}
	return r
}

var readSetup = []request{
	{"/exec", "create table Clean as select * from Census repair by key SSN;", ""},
	{"/exec", "create table LineYear as select * from Lineitem choice of Year;", ""},
	{"/prepare", "prepare cert_name as select certain Name from Clean where SSN = $1;", ""},
	{"/prepare", "prepare poss_name as select possible Name from Clean where SSN = $1;", ""},
}

// censusRead: the paper's headline path on an in-memory server. Reads
// dominate; a small share of certain inserts into Census (new records
// arriving while analysts query the repair) gives the write metrics a
// sample without touching the 2^40-world Clean.
func censusRead() *workload {
	return &workload{
		name: "census-read",
		catalog: func(seed int64) *store.Catalog {
			return store.FromComplete([]string{"Census", "Lineitem"}, []*relation.Relation{
				datagen.Census(censusRows, censusDups, seed),
				datagen.Lineitem(products, quantities, years, seed+1),
			})
		},
		setup: readSetup,
		mix: []share{
			{20, (*stream).cleanLookup},
			{2, (*stream).aggregate},
			{3, (*stream).censusInsert},
			{1, func(s *stream) op { return s.expire("Census", keepCensus, s.censusInsert) }},
		},
	}
}

// censusInsert adds a new, certain person to Census.
func (s *stream) censusInsert() op {
	s.seq++
	id := int64(s.client+1)*keyStride + s.seq
	sql := fmt.Sprintf("insert into Census values (%d, 'New%d', '%s', '%s');", id, id,
		cities[s.rng.Intn(len(cities))], cities[s.rng.Intn(len(cities))])
	r := row{table: "Census", id: id, val: fmt.Sprintf("New%d", id)}
	s.written["Census"] = append(s.written["Census"], r)
	return op{kind: "insert", write: true, reqs: []request{{"/exec", sql, ""}}, commits: []row{r}}
}

// durableInsert: single-shard WAL with the default checkpoint cadence.
// Mostly auto-commit single-row inserts, some two-row transactions on
// sticky sessions (a quarter rolled back), point reads of acknowledged
// keys and per-client counts.
func durableInsert() *workload {
	return &workload{
		name:    "durable-insert",
		durable: true,
		shards:  1,
		catalog: func(seed int64) *store.Catalog {
			return store.FromComplete([]string{"Census", "Events"}, []*relation.Relation{
				datagen.Census(durableRows, durableDups, seed), idTable(seedEvents, rand.New(rand.NewSource(seed))),
			})
		},
		setup: []request{
			{"/prepare", "prepare get_val as select certain Val from Events where Id = $1;", ""},
		},
		tables: []string{"Events"},
		mix: []share{
			{12, func(s *stream) op { return s.insert("Events") }},
			{3, func(s *stream) op { return s.stickyTxn("Events") }},
			{1, func(s *stream) op {
				return s.expire("Events", keepEvents, func() op { return s.insert("Events") })
			}},
			{3, func(s *stream) op {
				if o, ok := s.pointRead("Events", "get_val"); ok {
					return o
				}
				return s.insert("Events")
			}},
			{1, func(s *stream) op {
				return op{kind: "count", reqs: []request{{"/exec",
					fmt.Sprintf("select count(*) as N from Events where Client = %d;", s.client), ""}},
					count: &countCheck{table: "Events", client: s.client}}
			}},
		},
	}
}

// stickyTxn is BEGIN + two inserts in one request and COMMIT (three in
// four) or ROLLBACK in a second, on the client's sticky session.
func (s *stream) stickyTxn(table string) op {
	s.tokens++
	token := fmt.Sprintf("c%d-t%d", s.client, s.tokens)
	a, b := s.newRow(table), s.newRow(table)
	o := op{kind: "txn", write: true, abort: &request{"/exec", "rollback;", token}}
	o.reqs = []request{{"/exec", "begin; " + a.insertSQL(s.client) + " " + b.insertSQL(s.client), token}}
	if s.rng.Intn(4) == 0 {
		o.reqs = append(o.reqs, request{"/exec", "rollback;", token})
		o.rollbacks = []row{a, b}
	} else {
		o.reqs = append(o.reqs, request{"/exec", "commit;", token})
		o.commits = []row{a, b}
		s.written[table] = append(s.written[table], a, b)
	}
	return o
}

// shardTableNames picks the insert targets of whatif-sharded: the first
// names T0, T1, ... until every shard homes at least two of them.
func shardTableNames(shards int) []string {
	cat := store.New(nil)
	cat.Reshard(shards)
	per := make([]int, shards)
	var names []string
	for i := 0; len(names) < shardTables; i++ {
		name := fmt.Sprintf("T%d", i)
		if sh := cat.ShardOf(name); per[sh] < shardTables/shards {
			per[sh]++
			names = append(names, name)
		}
	}
	return names
}

// whatifSharded: four shards with per-shard WALs and a small buffer
// pool, reads and writes on one catalog: routed inserts, cross-shard
// two-relation transactions (2PC), what-if CTAS followed by DROP
// (all-shard commits), lookups, point reads and bounded aggregates.
func whatifSharded() *workload {
	const shards = 4
	tables := shardTableNames(shards)
	cat := store.New(nil)
	cat.Reshard(shards)
	return &workload{
		name:      "whatif-sharded",
		durable:   true,
		shards:    shards,
		poolPages: whatifPoolPages,
		catalog: func(seed int64) *store.Catalog {
			names := []string{"Census", "Lineitem"}
			rels := []*relation.Relation{
				datagen.Census(censusRows, censusDups, seed),
				datagen.Lineitem(products, quantities, years, seed+1),
			}
			rng := rand.New(rand.NewSource(seed))
			for _, t := range tables {
				names = append(names, t)
				rels = append(rels, idTable(seedTRows, rng))
			}
			return store.FromComplete(names, rels)
		},
		setup:  readSetup,
		tables: tables,
		mix: []share{
			{13, func(s *stream) op { return s.insert(tables[s.rng.Intn(len(tables))]) }},
			{1, func(s *stream) op {
				s.expires++
				t := tables[s.expires%len(tables)]
				return s.expire(t, keepTRows, func() op { return s.insert(t) })
			}},
			{4, func(s *stream) op {
				// Two relations on different shards in one transaction.
				ta := tables[s.rng.Intn(len(tables))]
				tb := tables[s.rng.Intn(len(tables))]
				for cat.ShardOf(tb) == cat.ShardOf(ta) {
					tb = tables[s.rng.Intn(len(tables))]
				}
				a, b := s.newRow(ta), s.newRow(tb)
				s.written[ta] = append(s.written[ta], a)
				s.written[tb] = append(s.written[tb], b)
				sql := "begin; " + a.insertSQL(s.client) + " " + b.insertSQL(s.client) + " commit;"
				return op{kind: "txn-2pc", write: true, reqs: []request{{"/exec", sql, ""}}, commits: []row{a, b}}
			}},
			{1, func(s *stream) op { return s.whatif("select * from Lineitem choice of Year") }},
			{1, func(s *stream) op { return s.whatif("select * from Lineitem repair by key Product") }},
			{10, (*stream).cleanLookup},
			{6, func(s *stream) op {
				if o, ok := s.pointRead(tables[s.rng.Intn(len(tables))], ""); ok {
					return o
				}
				return s.cleanLookup()
			}},
			{4, (*stream).aggregate},
		},
	}
}

// whatif materializes a what-if table and drops it again.
func (s *stream) whatif(query string) op {
	s.seq++
	name := fmt.Sprintf("W%d_%d", s.client, s.seq)
	sql := fmt.Sprintf("create table %s as %s; drop table %s;", name, query, name)
	return op{kind: "whatif", write: true, reqs: []request{{"/exec", sql, ""}}}
}

// eqConst is σ[attr = v].
func eqConst(attr string, v value.Value, from wsa.Expr) wsa.Expr {
	return &wsa.Select{Pred: ra.EqConst(attr, v), From: from}
}
