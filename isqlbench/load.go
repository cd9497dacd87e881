package main

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// refSampleEvery keeps every n-th reference-checked answer of a client
// for the post-run comparison; point reads and counts are all checked.
const refSampleEvery = 8

// maxRefSamples caps the reference comparisons per client and phase.
const maxRefSamples = 150

// ackState is what one client knows the server acknowledged.
type ackState struct {
	acked  map[string]map[int64]string // table → id → value
	rolled map[string]map[int64]bool
	// valueBytes counts the row-value bytes of acknowledged inserts,
	// including rolled-back ones: the server logged nothing for those,
	// but the client sent them.
	valueBytes int64
}

func newAckState() *ackState {
	return &ackState{acked: map[string]map[int64]string{}, rolled: map[string]map[int64]bool{}}
}

func (a *ackState) apply(o *op) {
	for _, r := range o.commits {
		if a.acked[r.table] == nil {
			a.acked[r.table] = map[int64]string{}
		}
		a.acked[r.table][r.id] = r.val
	}
	for _, r := range o.rollbacks {
		if a.rolled[r.table] == nil {
			a.rolled[r.table] = map[int64]bool{}
		}
		a.rolled[r.table][r.id] = true
	}
	if e := o.expire; e != nil {
		for id := range a.acked[e.table] {
			if id >= e.lo && id <= e.hi {
				delete(a.acked[e.table], id)
			}
		}
	}
	a.valueBytes += int64(o.valueBytes())
}

func (a *ackState) merge(b *ackState) {
	for t, m := range b.acked {
		if a.acked[t] == nil {
			a.acked[t] = map[int64]string{}
		}
		for id, v := range m {
			a.acked[t][id] = v
		}
	}
	for t, m := range b.rolled {
		if a.rolled[t] == nil {
			a.rolled[t] = map[int64]bool{}
		}
		for id := range m {
			a.rolled[t][id] = true
		}
	}
	a.valueBytes += b.valueBytes
}

// client is one closed-loop connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// send posts one request and returns the status and body. A transport
// error or a status other than 200/422 is a harness error.
func (c *client) send(r request) (int, string, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+r.endpoint, strings.NewReader(r.body))
	if err != nil {
		return 0, "", err
	}
	if r.session != "" {
		req.Header.Set("X-ISQL-Session", r.session)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, "", fmt.Errorf("%s %q: %w", r.endpoint, r.body, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, "", fmt.Errorf("%s %q: reading reply: %w", r.endpoint, r.body, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
		return 0, "", fmt.Errorf("%s %q: HTTP %d: %s", r.endpoint, r.body, resp.StatusCode, body)
	}
	return resp.StatusCode, string(body), nil
}

// mustOK sends a request that must succeed (setup, checks).
func (c *client) mustOK(r request) (string, error) {
	status, body, err := c.send(r)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("%s %q: %s", r.endpoint, r.body, strings.TrimSpace(body))
	}
	return body, nil
}

// sample is one completed op inside the measured window.
type sample struct {
	kind  string
	end   time.Duration // completion, from the window start
	lat   time.Duration
	write bool
	ok    bool
}

// refCheck is a reference-checked answer kept for after the run.
type refCheck struct {
	ref  *refQuery
	body string
	sql  string
}

// clientRun is one client's share of a phase.
type clientRun struct {
	samples   []sample
	attempted int // ops completed inside the window
	failed    int
	refs      []refCheck
	mismatch  []string
	acks      *ackState
	// Every request of the phase (warm-up included), for the traced
	// ledger: count, summed client-side latency and the texts.
	reqs    int
	reqTime time.Duration
	texts   []request
}

func (cr *clientRun) wrong(format string, args ...any) {
	cr.mismatch = append(cr.mismatch, fmt.Sprintf(format, args...))
}

// runOp sends the op's requests in order. failed reports an HTTP 422
// (a statement error); err a harness error.
func (c *client) runOp(o *op, cr *clientRun, keepTexts bool) (lat time.Duration, body string, failed bool, err error) {
	start := time.Now()
	for i, r := range o.reqs {
		t := time.Now()
		status, b, err := c.send(r)
		cr.reqs++
		cr.reqTime += time.Since(t)
		if keepTexts {
			cr.texts = append(cr.texts, r)
		}
		if err != nil {
			return 0, "", false, err
		}
		if status != http.StatusOK {
			lat = time.Since(start)
			if o.abort != nil && i < len(o.reqs)-1 {
				if _, _, err := c.send(*o.abort); err != nil {
					return 0, "", false, err
				}
			}
			return lat, b, true, nil
		}
		body = b
	}
	return time.Since(start), body, false, nil
}

// check verifies the answers an op can be checked against at once and
// keeps reference-checked ones for later.
func (cr *clientRun) check(o *op, body string, wantCount int, nref *int) {
	switch {
	case o.pointRead != nil:
		r := o.pointRead
		v, ok := cr.acks.acked[r.table][r.id]
		if !ok {
			return // the write it reads failed; nothing to expect
		}
		got, err := parseAnswers(body)
		if err != nil || !slices.Equal(got, singleValue("Val", v)) {
			cr.wrong("point read of %s.%d: got %q, want value %s", r.table, r.id, body, v)
		}
	case o.count != nil:
		got, err := parseAnswers(body)
		if err != nil || !slices.Equal(got, singleValue("N", fmt.Sprint(wantCount))) {
			cr.wrong("count of client %d in %s: got %q, want %d", o.count.client, o.count.table, body, wantCount)
		}
	case o.ref != nil:
		*nref++
		if *nref%refSampleEvery == 0 && len(cr.refs) < maxRefSamples {
			cr.refs = append(cr.refs, refCheck{ref: o.ref, body: body, sql: o.reqs[0].body})
		}
	}
}

// ownCount is the number of rows this client has acknowledged in table;
// count ops filter on the client's own Client value.
func (a *ackState) ownCount(table string) int { return len(a.acked[table]) }

// phase is one closed-loop measurement.
type phase struct {
	runs   []*clientRun
	window time.Duration
	// before and after bracket the measured window; first and last, with
	// the /metrics scrapes, the whole phase including warm-up, as the
	// traced ledger does.
	before, after procSample
	first, last   procSample
	mBefore       promSnapshot
	mAfter        promSnapshot
	sliceRates    []float64
	rssMB         []float64
}

// rssEvery is the resident-set sampling interval.
const rssEvery = 250 * time.Millisecond

// runPhase drives one client per stream against the server: a warm-up
// whose ops are executed and tracked but not sampled, then the measured
// window. Each client sends its next op only after the previous one
// completed.
func runPhase(srv *server, streams []*stream, warm, window time.Duration, keepTexts bool) (*phase, error) {
	ph := &phase{window: window, runs: make([]*clientRun, len(streams))}
	var perr error
	if ph.first, perr = readProc(srv.pid()); perr != nil {
		return nil, perr
	}
	if ph.mBefore, perr = srv.scrape(); perr != nil {
		return nil, perr
	}
	start := time.Now()
	t0 := start.Add(warm)
	t1 := t0.Add(window)
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, st := range streams {
		cr := &clientRun{acks: newAckState()}
		ph.runs[i] = cr
		wg.Add(1)
		go func(i int, st *stream, cr *clientRun) {
			defer wg.Done()
			c := newClient(srv.base)
			defer c.close()
			nref := 0
			for time.Now().Before(t1) {
				o := st.next()
				want := 0
				if o.count != nil {
					want = cr.acks.ownCount(o.count.table)
				}
				opStart := time.Now()
				lat, body, failed, err := c.runOp(&o, cr, keepTexts)
				if err != nil {
					errs[i] = err
					return
				}
				end := time.Now()
				if !failed {
					cr.acks.apply(&o)
					cr.check(&o, body, want, &nref)
				}
				if !opStart.Before(t0) && end.Before(t1) {
					cr.attempted++
					if failed {
						cr.failed++
					}
					cr.samples = append(cr.samples, sample{kind: o.kind, end: end.Sub(t0), lat: lat, write: o.write, ok: !failed})
				}
			}
		}(i, st, cr)
	}
	sleepUntil(t0)
	ph.before, perr = readProc(srv.pid())
	// Resident set, sampled through the window.
	for t := t0.Add(rssEvery); perr == nil && t.Before(t1); t = t.Add(rssEvery) {
		sleepUntil(t)
		var p procSample
		if p, perr = readProc(srv.pid()); perr == nil {
			ph.rssMB = append(ph.rssMB, float64(p.rssKB)/1024)
		}
	}
	sleepUntil(t1)
	if perr == nil {
		ph.after, perr = readProc(srv.pid())
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if perr != nil {
		return nil, perr
	}
	if ph.last, perr = readProc(srv.pid()); perr != nil {
		return nil, perr
	}
	ph.mAfter, perr = srv.scrape()
	return ph, perr
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// stats of a phase.
func (ph *phase) attempted() (n, failed int) {
	for _, cr := range ph.runs {
		n += cr.attempted
		failed += cr.failed
	}
	return n, failed
}

// latencies returns the successful ops' latencies matching keep, sorted.
func (ph *phase) latencies(keep func(sample) bool) []time.Duration {
	var out []time.Duration
	for _, cr := range ph.runs {
		for _, s := range cr.samples {
			if s.ok && keep(s) {
				out = append(out, s.lat)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// kinds lists the op kinds sampled in the window, sorted.
func (ph *phase) kinds() []string {
	seen := map[string]bool{}
	for _, cr := range ph.runs {
		for _, s := range cr.samples {
			seen[s.kind] = true
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// throughput is completed (successful) ops per second: the median over
// equal slices of the window, so one stalled slice does not move it.
func (ph *phase) throughput(slices int) float64 {
	counts := make([]float64, slices)
	for _, cr := range ph.runs {
		for _, s := range cr.samples {
			if s.ok {
				i := int(int64(s.end) * int64(slices) / int64(ph.window))
				if i >= slices {
					i = slices - 1
				}
				counts[i]++
			}
		}
	}
	per := ph.window.Seconds() / float64(slices)
	for i := range counts {
		counts[i] /= per
	}
	ph.sliceRates = counts
	return median(counts)
}

func (ph *phase) completed() int {
	n := 0
	for _, cr := range ph.runs {
		for _, s := range cr.samples {
			if s.ok {
				n++
			}
		}
	}
	return n
}

// quantile is the nearest-rank q-quantile of sorted durations, in ms.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
