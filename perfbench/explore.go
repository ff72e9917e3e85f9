package main

// The explore workload: closed loop, one client. Each op is one whole
// Figure-6 session on a fully resident, built World Factbook engine.
//
// Why: nearly all of its time goes to topk graph scoring, twig and
// summary; it never touches the pager, snapshots, the server or the
// document lifecycle.

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"seda"
	"seda/internal/keys"
	"seda/internal/summary"
	"seda/internal/topk"
)

const (
	exploreScale  = 0.2
	exploreShards = 2
	// exploreSetups is how many times set-up is repeated for setup_s.
	exploreSetups = 5
	// exploreLoads is how many snapshot loads load_ms takes the median of.
	exploreLoads = 11
)

// exploreConfig is the engine under test; the reference engine is the
// same corpus at one shard and Parallelism 1.
func exploreConfig() seda.Config { return seda.Config{Shards: exploreShards} }

// defineFigure3Catalog installs the paper's Figure 3(b) catalog.
func defineFigure3Catalog(eng *seda.Engine) error {
	base := keys.MustParse("(/country/name, /country/year)")
	cat := eng.Catalog()
	for _, err := range []error{
		cat.AddDimension("country", seda.ContextEntry{Context: "/country/name", Key: base}),
		cat.AddDimension("year", seda.ContextEntry{Context: "/country/year", Key: base}),
		cat.AddDimension("import-country", seda.ContextEntry{
			Context: "/country/economy/import_partners/item/trade_country",
			Key:     keys.MustParse("(/country/name, /country/year, .)")}),
		cat.AddFact("import-trade-percentage", seda.ContextEntry{
			Context: "/country/economy/import_partners/item/percentage",
			Key:     keys.MustParse("(/country/name, /country/year, ../trade_country)")}),
		cat.AddFact("GDP",
			seda.ContextEntry{Context: "/country/economy/GDP", Key: base},
			seda.ContextEntry{Context: "/country/economy/GDP_ppp", Key: base}),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// loopAnswer is what one session produced, rendered for comparison with
// the reference, plus the counts the report needs.
type loopAnswer struct {
	rs     []seda.SearchResult
	tuples []seda.Tuple
	facts  *seda.Table
}

// renderedLoop is a loopAnswer rendered for comparison, outside the timed
// session.
type renderedLoop struct {
	topk, complete, facts string
	tuples, factRows      int
}

func (a loopAnswer) render(eng *seda.Engine) renderedLoop {
	return renderedLoop{
		topk:     renderResults(eng, a.rs),
		complete: renderTuples(eng, a.tuples),
		facts:    a.facts.String(),
		tuples:   len(a.tuples),
		factRows: a.facts.NumRows(),
	}
}

// renderResults renders top-k results canonically: scores and document
// name@Dewey:path per node.
func renderResults(eng *seda.Engine, rs []seda.SearchResult) string {
	col := eng.Collection()
	dict := col.Dict()
	var b strings.Builder
	for i, r := range rs {
		fmt.Fprintf(&b, "%d %v %v %v", i, r.Score, r.ContentScore, r.Compactness)
		for j, ref := range r.Nodes {
			fmt.Fprintf(&b, " %s@%s:%s", col.Doc(ref.Doc).Name, ref.Dewey, dict.Path(r.Paths[j]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func renderTuples(eng *seda.Engine, ts []seda.Tuple) string {
	col := eng.Collection()
	var b strings.Builder
	for _, t := range ts {
		for _, ref := range t.Nodes {
			fmt.Fprintf(&b, "%s@%s ", col.Doc(ref.Doc).Name, ref.Dewey)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// chooseTree picks the connections the analyst takes in Figure 6: the
// tree connections joining the country to each other term at /country,
// and the partner to its measure at their shared item.
func chooseTree(q loopQuery, termA, termB int, tree bool, joinPath string) bool {
	if !tree {
		return false
	}
	if termA == 0 {
		return joinPath == "/country"
	}
	return joinPath == strings.TrimSuffix(q.Partner, "/trade_country")
}

// searchStats accumulates what traced top-k searches report.
type searchStats struct {
	searches, tuples, units, waves, results int
}

// topK runs one top-k search; with tr non-nil it is traced, recorded as a
// span of op with the index fetch and rank phases as child spans.
func topK(s *seda.Session, k int, tr *tracer, op, parent int, st *searchStats) ([]seda.SearchResult, time.Duration, error) {
	if tr == nil {
		t0 := time.Now()
		rs, err := s.TopK(k)
		return rs, time.Since(t0), err
	}
	var t topk.Trace
	id := tr.begin(op, parent, "topk.search")
	t0 := time.Now()
	rs, err := s.TopKTraced(k, &t)
	d := time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, d, err
	}
	tr.child(op, id, "index.fetch", time.Duration(t.FetchNs))
	tr.child(op, id, "topk.rank", time.Duration(t.RankNs))
	st.searches++
	st.tuples += t.TuplesScored
	st.units += t.UnitsScanned
	st.waves += len(t.Waves)
	st.results += len(rs)
	return rs, d, nil
}

// replaySteiner times graph.SteinerWeight once per returned tuple, as
// spans of op outside the session's own time.
func replaySteiner(eng *seda.Engine, rs []seda.SearchResult, tr *tracer, op int) {
	if tr == nil {
		return
	}
	for _, r := range rs {
		id := tr.begin(op, -1, "graph.steiner")
		eng.Graph().SteinerWeight(r.Nodes, steinerHops)
		tr.end(id)
	}
}

// steinerHops is topk's default link-hop cap for tuple connectivity.
const steinerHops = 2

// exploreSession runs one Figure-6 session and returns its answer and the
// latency of its first top-k. With tr non-nil every call is a span of op.
func exploreSession(eng *seda.Engine, q loopQuery, tr *tracer, op int, st *searchStats) (loopAnswer, time.Duration, error) {
	var a loopAnswer
	root := tr.begin(op, -1, "loop")
	defer tr.end(root)
	call := func(name string, fn func() error) error {
		id := tr.begin(op, root, name)
		err := fn()
		tr.end(id)
		return err
	}
	s, err := eng.NewSession(q.Text())
	if err != nil {
		return a, 0, err
	}
	rs, searchTime, err := topK(s, 10, tr, op, root, st)
	if err != nil {
		return a, 0, err
	}
	a.rs = rs
	if err := call("summary.contexts", func() error { s.ContextSummary(); return nil }); err != nil {
		return a, 0, err
	}
	for i, p := range q.refinements() {
		if err := s.RefineContexts(i, p); err != nil {
			return a, 0, err
		}
	}
	if _, _, err := topK(s, 20, tr, op, root, st); err != nil {
		return a, 0, err
	}
	var conns []seda.Connection
	if err := call("summary.connections", func() (err error) { conns, err = s.ConnectionSummary(); return err }); err != nil {
		return a, 0, err
	}
	dict := eng.Collection().Dict()
	var pick []int
	for i, c := range conns {
		if chooseTree(q, c.TermA, c.TermB, c.Kind == summary.Tree, dict.Path(c.JoinPath)) {
			pick = append(pick, i)
		}
	}
	if err := s.ChooseConnections(pick...); err != nil {
		return a, 0, err
	}
	if err := call("twig.complete", func() (err error) { a.tuples, err = s.CompleteResults(); return err }); err != nil {
		return a, 0, err
	}
	var star *seda.Star
	if err := call("cube.build", func() (err error) { star, err = s.BuildCube(seda.CubeOptions{}); return err }); err != nil {
		return a, 0, err
	}
	measure := figure3Facts[q.Measure]
	if a.facts = star.FactTable(measure); a.facts == nil {
		return a, 0, fmt.Errorf("session %q: no %s fact table", q.Text(), measure)
	}
	if err := call("olap.analyze", func() error { _, err := eng.Analyze(star, measure, loopDims); return err }); err != nil {
		return a, 0, err
	}
	return a, searchTime, nil
}

// figure3Facts maps the measure paths the Figure 3(b) catalog defines a
// fact for to that fact; a session analyzes its measure through it.
var figure3Facts = map[string]string{
	"/country/economy/import_partners/item/percentage": "import-trade-percentage",
}

// loopDims are the dimensions every session analyzes its measure by.
var loopDims = []string{"name", "year"}

// analyzable keeps the family members whose measure the catalog defines.
func analyzable(fam []loopQuery) []loopQuery {
	var out []loopQuery
	for _, q := range fam {
		if figure3Facts[q.Measure] != "" {
			out = append(out, q)
		}
	}
	return out
}

func runExplore(o options) (*result, error) {
	res := newResult()
	res.lines = append(res.lines, envBlock(o, map[string]any{
		"corpus": "worldfactbook", "scale": exploreScale, "shards": exploreShards,
		"parallelism": "GOMAXPROCS", "setups": exploreSetups,
	}))

	// Reference answers, untimed: a 1-shard, Parallelism-1 engine.
	refEng, err := seda.NewEngine(seda.WorldFactbook(exploreScale), seda.Config{Shards: 1, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	if err := defineFigure3Catalog(refEng); err != nil {
		return nil, err
	}
	pool := explorePool(refEng.Collection(), o.seed)
	refs := make([]renderedLoop, len(pool))
	var refStats searchStats
	for i, q := range pool {
		// Traced, so the reference pass also counts the tuples scored.
		a, _, err := exploreSession(refEng, q, newTracer(), 0, &refStats)
		if err != nil {
			return nil, fmt.Errorf("reference session %q: %w", q.Text(), err)
		}
		refs[i] = a.render(refEng)
		if o.corrupt {
			refs[i].topk += "corrupted\n"
		}
	}
	refEng = nil

	// Set-up, timed and repeated: build, catalog, one warm-up session.
	var eng *seda.Engine
	var setups []time.Duration
	for i := 0; i < exploreSetups; i++ {
		col := seda.WorldFactbook(exploreScale)
		runtime.GC()
		t0 := time.Now()
		eng, err = seda.NewEngine(col, exploreConfig())
		if err != nil {
			return nil, err
		}
		if err := defineFigure3Catalog(eng); err != nil {
			return nil, err
		}
		if _, _, err := exploreSession(eng, pool[0], nil, 0, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	res.metrics["setup_s"] = medianDuration(setups).Seconds()
	recordBuild(res, eng)
	if err := measureLoads(o, res, eng, exploreConfig(), exploreLoads); err != nil {
		return nil, err
	}

	// The measured closed loop. In a traced run every other pass over the
	// pool is traced, so the untraced passes run the same sessions and
	// give trace.overhead_ratio under the same conditions.
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var loops, search, tracedSearch samples
	var st searchStats
	var completeTuples, factRows int
	hits0, misses0 := eng.Summarizer().CacheStats()
	rw := startRuntimeWindow()
	start := time.Now()
	for op := 0; time.Since(start) < o.seconds; op++ {
		i := op % len(pool)
		var opTr *tracer
		if (op/len(pool))%2 == 0 {
			opTr = tr
		}
		t0 := time.Now()
		a, searchTime, err := exploreSession(eng, pool[i], opTr, op, &st)
		d := time.Since(t0)
		res.attempted++
		if err != nil {
			res.check(false, fmt.Sprintf("session %q: %v", pool[i].Text(), err))
			continue
		}
		got := a.render(eng)
		res.check(got == refs[i], fmt.Sprintf("session %q differs from the 1-shard reference", pool[i].Text()))
		loops.add(d)
		if opTr == nil {
			search.add(searchTime)
			continue
		}
		tracedSearch.add(searchTime)
		replaySteiner(eng, a.rs, tr, op)
		completeTuples += got.tuples
		factRows += got.factRows
	}
	elapsed := time.Since(start)
	rw.stop(res, res.attempted)
	hits1, misses1 := eng.Summarizer().CacheStats()
	hits, lookups := hits1-hits0, hits1-hits0+misses1-misses0

	loopTail, searchTail := tailFor(exploreExpectedOps), tailFor(exploreExpectedOps)
	res.printf("workload explore: closed loop, 1 client, %d sessions in %.2fs cycling %d pooled queries", res.attempted, elapsed.Seconds(), len(pool))
	res.printf("%s", loops.describe("loop_ms (one whole Figure-6 session; op_ms)", loopTail))
	res.printf("%s", search.describe("search_ms (first top-k of each untraced session)", searchTail))
	res.printf("property: summary.conn_cache_hit_ratio = %.4f (%d hits / %d connection lookups)", ratio(float64(hits), float64(lookups)), hits, lookups)
	res.printf("property: tuples scored per search = %.1f (%d tuples over the %d searches of one pass over the pool, on the reference engine)",
		ratio(float64(refStats.tuples), float64(refStats.searches)), refStats.tuples, refStats.searches)

	if !o.trace {
		res.metrics["search_ms.p50"] = search.median()
		res.metrics["search_ms.tail"] = search.quantile(searchTail)
		res.metrics["op_ms.p50"] = loops.median()
		res.metrics["op_ms.tail"] = loops.quantile(loopTail)
		res.metrics["throughput_ops_s"] = float64(res.attempted) / elapsed.Seconds()
		res.metrics["heap_mb"] = liveHeapMB(eng)
		return res, nil
	}
	lt := tr.totals()
	sessions := float64(len(tracedSearch))
	recordSearchLayers(res, lt, st)
	res.metrics["graph.steiner_us"] = 1000 * lt.meanMs("graph.steiner")
	res.metrics["summary.contexts_ms"] = lt.meanMs("summary.contexts")
	res.metrics["summary.connections_ms"] = lt.meanMs("summary.connections")
	res.metrics["summary.conn_cache_hit_ratio"] = ratio(float64(hits), float64(lookups))
	res.metrics["twig.complete_ms"] = lt.meanMs("twig.complete")
	res.metrics["twig.tuples"] = ratio(float64(completeTuples), sessions)
	res.metrics["cube.build_ms"] = lt.meanMs("cube.build")
	res.metrics["cube.fact_rows"] = ratio(float64(factRows), sessions)
	res.metrics["olap.analyze_ms"] = lt.meanMs("olap.analyze")
	res.metrics["trace.overhead_ratio"] = ratio(tracedSearch.median(), search.median())
	res.printf("trace: self time as a share of loop time over %d traced sessions: topk %.1f%%, index fetch %.1f%%, twig %.1f%%, summary %.1f%%", int(sessions),
		100*lt.selfShare("loop", "topk.search", "topk.rank"), 100*lt.selfShare("loop", "index.fetch"),
		100*lt.selfShare("loop", "twig.complete"), 100*lt.selfShare("loop", "summary.contexts", "summary.connections"))
	printLayers(res, lt)
	return res, tr.write(buildDir+"/traces", fmt.Sprintf("explore-seed%d.jsonl", o.seed))
}

// exploreExpectedOps is the fewest sessions a run is expected to measure
// per class; it fixes the tail percentile.
const exploreExpectedOps = 500
