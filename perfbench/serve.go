package main

// The serve workload: open loop against the sedad handler on loopback,
// with a Zipf-skewed seeded query mix over sessions — top-k mostly, plus
// a sliver of whole Figure-6 loops (contexts, refine, connections, choose,
// results, cube) — at a ladder of fixed rates that brackets the knee.
// Latency is timed from each request's due time.
//
// Why: it is the only workload that exercises the server (JSON, session
// locks, the top-k cache, the metrics middleware) and concurrency across
// both cores. Cache hits and real searches are separate classes, so a
// cache change and a search change each show up in their own class.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seda"
	"seda/internal/obs"
)

const (
	serveScale  = 0.1
	serveShards = 2
	// serveParallelism is each search's worker count: the server gets its
	// concurrency from requests, one per core, so a search does not take
	// the core a concurrent request needs.
	serveParallelism = 1
	// serveCacheSize is the server's top-k cache capacity in entries:
	// smaller than the query pool, so the Zipf mix both hits and misses.
	serveCacheSize = 16
	serveSetups    = 3
	serveLoads     = 11
	// serveWarmupOps is how many ops warm the top-k cache in set-up.
	serveWarmupOps = 150
	// serveProcsPerCPU sets GOMAXPROCS for the serve run.
	serveProcsPerCPU = 2
	// serveClients is the number of client connections: one per core.
	serveClients = 2
	// serveLimitMs is the latency limit on the search class's tail that
	// decides whether a rung of the ladder is served.
	serveLimitMs = 150.0
	// serveBaseShare is the share of the run spent at the base rung,
	// where the class latencies are measured.
	serveBaseShare = 0.6
	// serveAbortLag stops feeding a rung whose generator has fallen this
	// far behind: its backlog is growing and the rung has failed.
	serveAbortLag = 2 * time.Second
	// serveExpected* are the fewest samples per class expected at the
	// base rung; they fix the tail percentiles.
	serveExpectedSearches = 300
	serveExpectedHits     = 300
	serveExpectedLoops    = 150
	serveRungTail         = 0.90
	serveCollection       = "wf"
)

// serveRates is the ladder of offered rates, in ops per second. The first
// rung is the base rate the class latencies are measured at; the middle
// rungs bracket the knee on a 2-core machine; the last offers far more
// than the server completes, so its achieved rate is the capacity.
var serveRates = []float64{80, 150, 220, 290, 1000}

// httpClient is one client connection.
type httpClient struct {
	c    *http.Client
	base string
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{base: base, c: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (h *httpClient) do(method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// Wire shapes the benchmark reads back, mirroring the sedad API.
type (
	wireNode struct {
		Node string `json:"node"`
		Path string `json:"path"`
	}
	wireResult struct {
		Score        float64    `json:"score"`
		ContentScore float64    `json:"content_score"`
		Compactness  float64    `json:"compactness"`
		Nodes        []wireNode `json:"nodes"`
	}
	topkResponse struct {
		Cached  bool         `json:"cached"`
		Results []wireResult `json:"results"`
	}
	contextsResponse struct {
		Contexts []struct {
			Entries []struct {
				Path        string `json:"path"`
				DocFreq     int    `json:"doc_freq"`
				Occurrences int    `json:"occurrences"`
			} `json:"entries"`
		} `json:"contexts"`
	}
	connectionsResponse struct {
		Connections []struct {
			Index    int    `json:"index"`
			TermA    int    `json:"term_a"`
			TermB    int    `json:"term_b"`
			Kind     string `json:"kind"`
			JoinPath string `json:"join_path"`
		} `json:"connections"`
	}
	wireTable struct {
		Cols []string `json:"cols"`
		Rows [][]any  `json:"rows"`
	}
)

func renderWireResults(rs []wireResult) string {
	var b strings.Builder
	for i, r := range rs {
		fmt.Fprintf(&b, "%d %v %v %v", i, r.Score, r.ContentScore, r.Compactness)
		for _, n := range r.Nodes {
			fmt.Fprintf(&b, " %s:%s", n.Node, n.Path)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// renderRefResults renders library results the way sedad puts them on
// the wire (document id@Dewey, path).
func renderRefResults(eng *seda.Engine, rs []seda.SearchResult) string {
	dict := eng.Collection().Dict()
	wr := make([]wireResult, len(rs))
	for i, r := range rs {
		wr[i] = wireResult{Score: r.Score, ContentScore: r.ContentScore, Compactness: r.Compactness}
		for j, ref := range r.Nodes {
			wr[i].Nodes = append(wr[i].Nodes, wireNode{Node: ref.String(), Path: dict.Path(r.Paths[j])})
		}
	}
	return renderWireResults(wr)
}

func renderRows(rows [][]any) string {
	var b strings.Builder
	for _, row := range rows {
		fmt.Fprintln(&b, row...)
	}
	return b.String()
}

func renderRefTable(t *seda.Table) string {
	rows := make([][]any, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = make([]any, len(r))
		for j, v := range r {
			switch {
			case v.IsNull:
				rows[i][j] = nil
			case v.IsNum:
				rows[i][j] = v.Num
			default:
				rows[i][j] = v.Str
			}
		}
	}
	return renderRows(rows)
}

// serveRef is the reference answer for one pool query.
type serveRef struct {
	topk                        string
	contexts, results, factRows string // loop queries only
}

// serveRefs computes, on a 1-shard, Parallelism-1 engine, the reference
// top-k of every pool query, then the op stream — whose popularity order
// uses each query's tuples scored as its cost — and the references of
// the loop queries.
func serveRefs(pool []loopQuery, seed uint64) ([]serveRef, *serveOpStream, error) {
	eng, err := seda.NewEngine(seda.WorldFactbook(serveScale), seda.Config{Shards: 1, Parallelism: 1})
	if err != nil {
		return nil, nil, err
	}
	if err := defineFigure3Catalog(eng); err != nil {
		return nil, nil, err
	}
	refs := make([]serveRef, len(pool))
	costs := make([]int, len(pool))
	for i, q := range pool {
		s, err := eng.NewSession(q.Text())
		if err != nil {
			return nil, nil, err
		}
		var st searchStats
		rs, _, err := topK(s, 10, newTracer(), 0, -1, &st)
		if err != nil {
			return nil, nil, err
		}
		refs[i].topk = renderRefResults(eng, rs)
		costs[i] = st.tuples
	}
	ops := newServeOpStream(seed, costs)
	dict := eng.Collection().Dict()
	for _, i := range ops.loopQueries() {
		q := pool[i]
		s, err := eng.NewSession(q.Text())
		if err != nil {
			return nil, nil, err
		}
		var b strings.Builder
		for _, bucket := range s.ContextSummary() {
			for _, e := range bucket.Entries {
				fmt.Fprintf(&b, "%s %d %d\n", e.PathString, e.DocFreq, e.Occurrences)
			}
		}
		refs[i].contexts = b.String()
		a, _, err := exploreSession(eng, q, nil, 0, nil)
		if err != nil {
			return nil, nil, err
		}
		rows := make([][]any, len(a.tuples))
		for r, t := range a.tuples {
			for j, ref := range t.Nodes {
				rows[r] = append(rows[r], ref.String(), dict.Path(t.Paths[j]))
			}
		}
		refs[i].results = renderRows(rows)
		refs[i].factRows = renderRefTable(a.facts)
	}
	return refs, ops, nil
}

// catalogPayload is the Figure 3(b) catalog as POST /collections/{name}/catalog takes it.
var catalogPayload = map[string]any{
	"dimensions": []map[string]any{
		{"name": "country", "contexts": []map[string]string{{"context": "/country/name", "key": "(/country/name, /country/year)"}}},
		{"name": "year", "contexts": []map[string]string{{"context": "/country/year", "key": "(/country/name, /country/year)"}}},
		{"name": "import-country", "contexts": []map[string]string{{"context": "/country/economy/import_partners/item/trade_country", "key": "(/country/name, /country/year, .)"}}},
	},
	"facts": []map[string]any{
		{"name": "import-trade-percentage", "contexts": []map[string]string{{"context": "/country/economy/import_partners/item/percentage", "key": "(/country/name, /country/year, ../trade_country)"}}},
		{"name": "GDP", "contexts": []map[string]string{
			{"context": "/country/economy/GDP", "key": "(/country/name, /country/year)"},
			{"context": "/country/economy/GDP_ppp", "key": "(/country/name, /country/year)"}}},
	},
}

// serving is one running sedad handler on a loopback listener.
type serving struct {
	srv  *seda.Server
	hs   *http.Server
	done chan struct{}
	base string
}

func startServing(col *seda.Collection) (*serving, error) {
	srv := seda.NewServer(seda.ServerOptions{CacheSize: serveCacheSize, Parallelism: serveParallelism})
	if err := srv.Registry().RegisterCollection(serveCollection, col, seda.Config{Shards: serveShards, Parallelism: serveParallelism}, ""); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serving{srv: srv, hs: &http.Server{Handler: srv}, done: make(chan struct{}), base: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln)
	}()
	return s, nil
}

func (s *serving) stop() {
	s.hs.Close()
	<-s.done
}

// serveClass is a request class of the open loop.
type serveClass int

const (
	classSearch serveClass = iota // top-k op that ran a search
	classHit                      // top-k op served from the cache
	classLoop                     // whole Figure-6 loop over HTTP
	numClasses
)

// serveSample is one completed op.
type serveSample struct {
	class   serveClass
	latency time.Duration // from due time to completion
	lag     time.Duration // from due time to send
	traced  bool
}

// serveRunner executes ops against a serving handler and checks them.
type serveRunner struct {
	pool []loopQuery
	refs []serveRef
	tr   *tracer
	mu   sync.Mutex // guards tr
}

func (r *serveRunner) span(traced bool, op int, name string, fn func() error) error {
	if !traced {
		return fn()
	}
	r.mu.Lock()
	id := r.tr.begin(op, -1, name)
	r.mu.Unlock()
	err := fn()
	r.mu.Lock()
	r.tr.end(id)
	r.mu.Unlock()
	return err
}

// errMismatch marks a wrong answer, as opposed to a failed request.
var errMismatch = errors.New("answer differs from the 1-shard reference")

// run executes one op; it returns the op's class.
func (r *serveRunner) run(h *httpClient, o serveOp, op int, traced bool) (serveClass, error) {
	q := r.pool[o.Query]
	var sess struct {
		Session string `json:"session"`
	}
	if err := r.span(traced, op, "http.sessions", func() error {
		return h.do("POST", "/sessions", map[string]string{"collection": serveCollection, "query": q.Text()}, &sess)
	}); err != nil {
		return classSearch, err
	}
	sp := "/sessions/" + sess.Session
	var top topkResponse
	if err := r.span(traced, op, "http.topk", func() error { return h.do("GET", sp+"/topk?k=10", nil, &top) }); err != nil {
		return classSearch, err
	}
	class := classSearch
	if top.Cached {
		class = classHit
	}
	if renderWireResults(top.Results) != r.refs[o.Query].topk {
		return class, fmt.Errorf("top-k of %q: %w", q.Text(), errMismatch)
	}
	if !o.Loop {
		return class, nil
	}
	ref := r.refs[o.Query]
	var ctxs contextsResponse
	if err := r.span(traced, op, "http.contexts", func() error { return h.do("GET", sp+"/contexts", nil, &ctxs) }); err != nil {
		return classLoop, err
	}
	var b strings.Builder
	for _, c := range ctxs.Contexts {
		for _, e := range c.Entries {
			fmt.Fprintf(&b, "%s %d %d\n", e.Path, e.DocFreq, e.Occurrences)
		}
	}
	if b.String() != ref.contexts {
		return classLoop, fmt.Errorf("contexts of %q: %w", q.Text(), errMismatch)
	}
	for i, p := range q.refinements() {
		if err := h.do("POST", sp+"/refine", map[string]any{"term": i, "paths": []string{p}}, nil); err != nil {
			return classLoop, err
		}
	}
	if err := r.span(traced, op, "http.topk", func() error { return h.do("GET", sp+"/topk?k=20", nil, &top) }); err != nil {
		return classLoop, err
	}
	var conns connectionsResponse
	if err := r.span(traced, op, "http.connections", func() error { return h.do("GET", sp+"/connections", nil, &conns) }); err != nil {
		return classLoop, err
	}
	pick := []int{}
	for _, c := range conns.Connections {
		if chooseTree(q, c.TermA, c.TermB, c.Kind == "tree", c.JoinPath) {
			pick = append(pick, c.Index)
		}
	}
	if err := h.do("POST", sp+"/choose", map[string]any{"connections": pick}, nil); err != nil {
		return classLoop, err
	}
	var results struct {
		Table wireTable `json:"table"`
	}
	if err := r.span(traced, op, "http.results", func() error { return h.do("GET", sp+"/results?max_rows=-1", nil, &results) }); err != nil {
		return classLoop, err
	}
	if renderRows(results.Table.Rows) != ref.results {
		return classLoop, fmt.Errorf("results of %q: %w", q.Text(), errMismatch)
	}
	var cube struct {
		Facts []wireTable `json:"facts"`
	}
	if err := r.span(traced, op, "http.cube", func() error {
		return h.do("POST", sp+"/cube", map[string]any{"max_rows": -1}, &cube)
	}); err != nil {
		return classLoop, err
	}
	measure := figure3Facts[q.Measure]
	found := false
	for _, ft := range cube.Facts {
		for _, c := range ft.Cols {
			if c == measure {
				found = renderRows(ft.Rows) == ref.factRows
			}
		}
	}
	if !found {
		return classLoop, fmt.Errorf("fact rows of %q: %w", q.Text(), errMismatch)
	}
	return classLoop, nil
}

// rung is one offered rate of the ladder and what it measured.
type rung struct {
	rate     float64
	duration time.Duration
	samples  []serveSample
	failed   int
	aborted  bool
	// busy is from the rung's start to its last completion.
	busy time.Duration
}

// achieved is the rate the rung completed ops at, backlog drained.
func (g *rung) achieved() float64 {
	return ratio(float64(len(g.samples)+g.failed), g.busy.Seconds())
}

func (g *rung) class(c serveClass, traced bool) samples {
	var s samples
	for _, x := range g.samples {
		if x.class == c && x.traced == traced {
			s.add(x.latency)
		}
	}
	return s
}

// searchTail is the rung's search-class tail latency, traced ops included.
func (g *rung) searchTail() float64 {
	var s samples
	for _, x := range g.samples {
		if x.class == classSearch {
			s.add(x.latency)
		}
	}
	return s.quantile(serveRungTail)
}

// endLag is the median generator lag over the rung's last fifth of
// requests: how far behind its schedule the rung ended.
func (g *rung) endLag() float64 {
	n := len(g.samples)
	var lag samples
	for _, x := range g.samples[n-n/5:] {
		lag.add(x.lag)
	}
	if len(lag) == 0 {
		return 0
	}
	return lag.median()
}

// score is what the latency limit is held against: the search-class tail,
// or twice the end-of-rung lag when the backlog grows faster.
func (g *rung) score() float64 {
	if g.aborted {
		return math.Inf(1)
	}
	return math.Max(g.searchTail(), 2*g.endLag())
}

func (g *rung) ok() bool { return g.failed == 0 && g.score() <= serveLimitMs }

// runRung offers ops at g.rate for g.duration from serveClients
// connections: each client takes the next op, waits for its due time if
// it is early, and sends it.
func runRung(g *rung, clients []*httpClient, runner *serveRunner, ops *serveOpStream, opBase *int, res *result, traceAlternate bool) {
	n := int(g.rate * g.duration.Seconds())
	stream := make([]serveOp, n)
	for i := range stream {
		stream[i] = ops.next()
	}
	base := *opBase
	*opBase += n
	var next atomic.Int64
	var stop atomic.Bool
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for _, h := range clients {
		wg.Add(1)
		go func(h *httpClient) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || stop.Load() {
					return
				}
				due := start.Add(time.Duration(float64(i) / g.rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				if sent.Sub(due) > serveAbortLag {
					stop.Store(true)
					mu.Lock()
					g.aborted = true
					mu.Unlock()
					return
				}
				traced := traceAlternate && i%2 == 0
				class, err := runner.run(h, stream[i], base+i, traced)
				done := time.Now()
				mu.Lock()
				res.attempted++
				if err != nil {
					g.failed++
					res.check(false, err.Error())
				} else {
					g.samples = append(g.samples, serveSample{class: class, latency: done.Sub(due), lag: sent.Sub(due), traced: traced})
				}
				mu.Unlock()
			}
		}(h)
	}
	wg.Wait()
	g.busy = time.Since(start)
}

// scrape reads /metrics into a flat map keyed name{label="value",...}.
func scrape(h *httpClient) (map[string]float64, error) {
	resp, err := h.c.Get(h.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			key := s.Name
			if len(s.Labels) > 0 {
				var ls []string
				for _, l := range s.Labels {
					ls = append(ls, fmt.Sprintf("%s=%q", l.Name, l.Value))
				}
				sort.Strings(ls)
				key += "{" + strings.Join(ls, ",") + "}"
			}
			out[key] = s.Value
		}
	}
	return out, nil
}

// serveRoutes maps the per-layer handler metrics to sedad route patterns.
var serveRoutes = map[string]string{
	"server.handler_ms.sessions":    "POST /sessions",
	"server.handler_ms.topk":        "GET /sessions/{id}/topk",
	"server.handler_ms.contexts":    "GET /sessions/{id}/contexts",
	"server.handler_ms.connections": "GET /sessions/{id}/connections",
	"server.handler_ms.results":     "GET /sessions/{id}/results",
	"server.handler_ms.cube":        "POST /sessions/{id}/cube",
}

func runServe(o options) (*result, error) {
	// The load generator shares the process with the server. With more Ps
	// than cores, a client goroutine that wakes for its due time is
	// scheduled by the OS within a time slice instead of queueing behind
	// a running search for the Go scheduler's 10ms preemption tick.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(serveProcsPerCPU * runtime.NumCPU()))
	res := newResult()
	res.lines = append(res.lines, envBlock(o, map[string]any{
		"corpus": "worldfactbook", "scale": serveScale, "shards": serveShards, "cache_entries": serveCacheSize,
		"clients": serveClients, "rate_ladder_rps": serveRates, "latency_limit_ms": serveLimitMs,
		"limit_percentile": 100 * serveRungTail, "zipf_s": serveZipfS, "loop_share": serveLoopShare, "setups": serveSetups,
	}))

	// The query pool and its references, untimed.
	pool := analyzable(loopFamily(seda.WorldFactbook(serveScale)))
	refs, ops, err := serveRefs(pool, o.seed)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if o.corrupt {
		for i := range refs {
			refs[i].topk += "corrupted\n"
		}
	}

	// Set-up, timed and repeated: start the handler, register the corpus
	// and the catalog, then warm up — the first session builds the engine.
	var sv *serving
	var setups []time.Duration
	runner := &serveRunner{pool: pool, refs: refs}
	for i := 0; i < serveSetups; i++ {
		col := seda.WorldFactbook(serveScale)
		if sv != nil {
			sv.stop()
		}
		runtime.GC()
		t0 := time.Now()
		if sv, err = startServing(col); err != nil {
			return nil, err
		}
		h := newHTTPClient(sv.base)
		if err := h.do("POST", "/collections/"+serveCollection+"/catalog", catalogPayload, nil); err != nil {
			sv.stop()
			return nil, err
		}
		// Warm-up: the loop queries once, then ops from a stream of the
		// same popularity until the top-k cache holds its steady state. A
		// wrong answer here is caught again in the measured window.
		warm := ops.fork(o.seed, "serve-warmup")
		for k := 0; k < len(ops.loopQueries())+serveWarmupOps; k++ {
			op := warm.next()
			if k < len(ops.loopQueries()) {
				op = serveOp{Query: ops.loopQueries()[k], Loop: true}
			}
			if _, err := runner.run(h, op, 0, false); err != nil && !errors.Is(err, errMismatch) {
				sv.stop()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0))
	}
	defer sv.stop()
	res.metrics["setup_s"] = medianDuration(setups).Seconds()
	eng, err := sv.srv.Registry().Engine(serveCollection)
	if err != nil {
		return nil, err
	}
	recordBuild(res, eng)
	if err := measureLoads(o, res, eng, seda.Config{Shards: serveShards}, serveLoads); err != nil {
		return nil, err
	}

	if o.trace {
		runner.tr = newTracer()
	}
	clients := make([]*httpClient, serveClients)
	for i := range clients {
		clients[i] = newHTTPClient(sv.base)
	}
	m0, err := scrape(clients[0])
	if err != nil {
		return nil, err
	}
	rungs := make([]*rung, len(serveRates))
	for i, rate := range serveRates {
		share := (1 - serveBaseShare) / float64(len(serveRates)-1)
		if i == 0 {
			share = serveBaseShare
		}
		rungs[i] = &rung{rate: rate, duration: time.Duration(share * float64(o.seconds))}
	}
	rw := startRuntimeWindow()
	opBase := 0
	start := time.Now()
	for _, g := range rungs {
		runRung(g, clients, runner, ops, &opBase, res, o.trace)
	}
	elapsed := time.Since(start)
	rw.stop(res, res.attempted)
	m1, err := scrape(clients[0])
	if err != nil {
		return nil, err
	}
	delta := func(key string) float64 { return m1[key] - m0[key] }

	base := rungs[0]
	search, hits := base.class(classSearch, false), base.class(classHit, false)
	loops := base.class(classLoop, false)
	loopTail := tailFor(serveExpectedLoops)
	searchTail, hitTail := tailFor(serveExpectedSearches), tailFor(serveExpectedHits)
	if o.trace {
		searchTail, hitTail, loopTail = tailFor(serveExpectedSearches/2), tailFor(serveExpectedHits/2), tailFor(serveExpectedLoops/2)
	}
	maxOK := maxOKRate(rungs)
	counts := make([]int, numClasses)
	for _, g := range rungs {
		for _, x := range g.samples {
			counts[x.class]++
		}
	}
	var lagBase, hitSvc, searchSvc samples
	for _, x := range base.samples {
		lagBase.add(x.lag)
		switch {
		case x.traced:
		case x.class == classHit:
			hitSvc.add(x.latency - x.lag)
		case x.class == classSearch:
			searchSvc.add(x.latency - x.lag)
		}
	}
	topkOps := counts[classSearch] + counts[classHit]
	res.printf("workload serve: open loop, %d client connections, %d ops in %.2fs", serveClients, res.attempted, elapsed.Seconds())
	res.printf("%s", search.describe(fmt.Sprintf("search_ms (top-k ops that missed the cache, base rung %.0f/s)", base.rate), searchTail))
	res.printf("%s", hits.describe(fmt.Sprintf("cache_hit_ms (top-k ops served from the cache, base rung %.0f/s)", base.rate), hitTail))
	res.printf("%s", loops.describe(fmt.Sprintf("loop_ms (whole Figure-6 sessions over HTTP, base rung %.0f/s; op_ms)", base.rate), loopTail))
	for _, g := range rungs {
		res.printf("rung %.0f/s: %d ops, search p%.0f=%.3fms, end lag %.3fms, score %.3fms (limit %.0fms), ok=%t, aborted=%t, failed=%d", g.rate, len(g.samples),
			100*serveRungTail, g.searchTail(), g.endLag(), g.score(), serveLimitMs, g.ok(), g.aborted, g.failed)
	}
	capacity := rungs[len(rungs)-1].achieved()
	res.printf("serve.max_ok_rps = %.2f (highest offered rate whose search p%.0f meets %.0fms with no growing backlog)", maxOK, 100*serveRungTail, serveLimitMs)
	res.printf("serve.capacity_ops_s = %.2f (ops completed per second at the overloaded %.0f/s rung; throughput_ops_s)", capacity, rungs[len(rungs)-1].rate)
	res.printf("property: cache-hit share = %.4f (%d hits / %d top-k ops); samples per class: search %d, cache hit %d, loop %d",
		ratio(float64(counts[classHit]), float64(topkOps)), counts[classHit], topkOps, counts[classSearch], counts[classHit], counts[classLoop])
	res.printf("base rung service time (send to completion): search p50=%.3fms p90=%.3fms, cache hit p50=%.3fms p90=%.3fms",
		searchSvc.median(), searchSvc.quantile(0.9), hitSvc.median(), hitSvc.quantile(0.9))
	res.printf("property: generator lag at the base rung p50=%.3fms p99=%.3fms max=%.3fms", lagBase.median(), lagBase.quantile(0.99), lagBase.quantile(1))

	if !o.trace {
		res.metrics["search_ms.p50"] = search.median()
		res.metrics["search_ms.tail"] = search.quantile(searchTail)
		res.metrics["op_ms.p50"] = loops.median()
		res.metrics["op_ms.tail"] = loops.quantile(loopTail)
		res.metrics["throughput_ops_s"] = capacity
		res.metrics["heap_mb"] = liveHeapMB(sv.srv)
		return res, nil
	}
	lt := runner.tr.totals()
	searches := delta("seda_topk_searches_total")
	res.metrics["server.searches"] = searches
	res.metrics["server.cache_hit_ratio"] = ratio(delta("seda_topk_cache_hits_total"), delta("seda_topk_cache_hits_total")+delta("seda_topk_cache_misses_total"))
	res.metrics["server.session_evictions"] = delta("seda_sessions_evicted_lru_total") + delta("seda_sessions_evicted_ttl_total")
	for metric, route := range serveRoutes {
		key := fmt.Sprintf("{endpoint=%q}", route)
		res.metrics[metric] = 1000 * ratio(delta("seda_http_request_duration_seconds_sum"+key), delta("seda_http_request_duration_seconds_count"+key))
	}
	res.metrics["topk.search_ms"] = 1000 * ratio(delta("seda_topk_search_duration_seconds_sum"), delta("seda_topk_search_duration_seconds_count"))
	res.metrics["topk.tuples_scored"] = ratio(delta("seda_topk_tuples_scored_total"), searches)
	res.metrics["topk.units_scanned"] = ratio(delta("seda_topk_units_scanned_total"), searches)
	res.metrics["topk.waves"] = ratio(delta("seda_topk_waves_total"), searches)
	res.metrics["loadgen.lag_ms"] = lagBase.median()
	res.metrics["trace.overhead_ratio"] = ratio(base.class(classSearch, true).median(), search.median())
	printLayers(res, lt)
	return res, runner.tr.write(buildDir+"/traces", fmt.Sprintf("serve-seed%d.jsonl", o.seed))
}

// maxOKRate is the highest offered rate whose search-class tail meets the
// latency limit with no growing backlog, interpolated on log score
// between the last rung that met the limit and the first that did not.
func maxOKRate(rungs []*rung) float64 {
	last := -1
	for i, g := range rungs {
		if !g.ok() {
			break
		}
		last = i
	}
	if last < 0 {
		return 0
	}
	if last == len(rungs)-1 {
		return rungs[last].rate
	}
	lo, hi := rungs[last], rungs[last+1]
	sLo, sHi := lo.score(), hi.score()
	frac := 0.0
	if sHi > sLo {
		frac = (math.Log(serveLimitMs) - math.Log(sLo)) / (math.Log(sHi) - math.Log(sLo))
	}
	frac = math.Max(0, math.Min(frac, 1))
	return lo.rate + frac*(hi.rate-lo.rate)
}
