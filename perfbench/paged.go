package main

// The paged workload: closed loop, one client. Cold top-k searches, 1- and
// 2-term `*`-context queries derived from the vocabulary, on an engine
// loaded from a snapshot with disk backing at a resident budget of 25% of
// the encoded index bytes.
//
// Why: it is the only workload whose working set is larger than the
// program's own cache, so its time goes to index page-in and decode. It
// does almost no multi-term graph scoring, so it predicts "no change" for
// a scoring optimisation.

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"seda"
	"seda/internal/index"
)

const (
	pagedScale  = 0.2
	pagedShards = 8
	// pagedBudgetDiv sets the resident budget to 1/pagedBudgetDiv of the
	// encoded index bytes.
	pagedBudgetDiv = 4
	// pagedTerms is how many vocabulary terms the query pool is built
	// from (each alone, and paired with the next).
	pagedTerms        = 24
	pagedSetups       = 5
	pagedLoads        = 11
	pagedWarmup       = 8
	pagedExpectedOps  = 1000
	pagedSnapshotName = "paged"
)

func pagedConfig(budget int64) seda.Config {
	return seda.Config{Shards: pagedShards, ResidentBudget: budget, Backing: seda.BackingDisk}
}

func runPaged(o options) (*result, error) {
	res := newResult()

	// Reference answers, untimed: the fully resident built engine.
	refEng, err := seda.NewEngine(seda.WorldFactbook(pagedScale), seda.Config{Shards: pagedShards})
	if err != nil {
		return nil, err
	}
	var encoded int64
	for _, st := range refEng.ShardStats() {
		encoded += st.Bytes
	}
	budget := encoded / pagedBudgetDiv
	cfg := pagedConfig(budget)
	res.lines = append(res.lines, envBlock(o, map[string]any{
		"corpus": "worldfactbook", "scale": pagedScale, "shards": pagedShards, "backing": "disk",
		"budget_bytes": budget, "encoded_index_bytes": encoded, "setups": pagedSetups,
	}))
	queries := vocabQueries(refEng, o.seed, "paged", pagedTerms)
	refs := make([]string, len(queries))
	for i, q := range queries {
		s, err := refEng.NewSession(q)
		if err != nil {
			return nil, err
		}
		rs, err := s.TopK(10)
		if err != nil {
			return nil, err
		}
		refs[i] = renderResults(refEng, rs)
		if o.corrupt {
			refs[i] += "corrupted\n"
		}
	}
	if err := measureLoads(o, res, refEng, cfg, pagedLoads); err != nil {
		return nil, err
	}
	refEng = nil

	// Set-up, timed and repeated: build, save, load paged, warm up.
	picks := newRand(o.seed, "paged-ops")
	var eng *seda.Engine
	var setups []time.Duration
	for i := 0; i < pagedSetups; i++ {
		col := seda.WorldFactbook(pagedScale)
		path := o.snapshotPath(fmt.Sprintf("%s-%d", pagedSnapshotName, i))
		runtime.GC()
		t0 := time.Now()
		built, err := seda.NewEngine(col, seda.Config{Shards: pagedShards})
		if err != nil {
			return nil, err
		}
		if err := seda.SaveEngineFile(path, built); err != nil {
			return nil, err
		}
		if i == 0 {
			recordBuild(res, built)
		}
		if eng, err = seda.LoadEngineFile(path, cfg); err != nil {
			return nil, err
		}
		for w := 0; w < pagedWarmup; w++ {
			if _, err := searchOnce(eng, queries[w%len(queries)]); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0))
	}
	res.metrics["setup_s"] = medianDuration(setups).Seconds()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var ops, search, tracedSearch samples
	var st searchStats
	var perSearchPageIns []int
	p0, _ := eng.PagerStats()
	rw := startRuntimeWindow()
	start := time.Now()
	for op := 0; time.Since(start) < o.seconds; op++ {
		i := picks.IntN(len(queries))
		var opTr *tracer
		if op%2 == 0 {
			opTr = tr
		}
		var before index.PagerStats
		if opTr != nil {
			before, _ = eng.PagerStats()
		}
		t0 := time.Now()
		s, err := eng.NewSession(queries[i])
		var rs []seda.SearchResult
		var searchTime time.Duration
		if err == nil {
			rs, searchTime, err = topK(s, 10, opTr, op, -1, &st)
		}
		d := time.Since(t0)
		res.attempted++
		if err != nil {
			res.check(false, fmt.Sprintf("search %q: %v", queries[i], err))
			continue
		}
		res.check(renderResults(eng, rs) == refs[i], fmt.Sprintf("search %q differs from the resident engine", queries[i]))
		ops.add(d)
		if opTr == nil {
			search.add(searchTime)
			continue
		}
		after, _ := eng.PagerStats()
		perSearchPageIns = append(perSearchPageIns, int(after.PageIns-before.PageIns))
		tracedSearch.add(searchTime)
		replaySteiner(eng, rs, tr, op)
	}
	elapsed := time.Since(start)
	rw.stop(res, res.attempted)
	p1, _ := eng.PagerStats()
	n := float64(res.attempted)
	pageIns := ratio(float64(p1.PageIns-p0.PageIns), n)

	tail := tailFor(pagedExpectedOps)
	res.printf("workload paged: closed loop, 1 client, %d cold searches in %.2fs over %d vocabulary queries", res.attempted, elapsed.Seconds(), len(queries))
	res.printf("%s", ops.describe("op_ms (session + top-k)", tail))
	res.printf("%s", search.describe("search_ms (top-k)", tail))
	res.printf("property: index.budget_ratio = %.3f (%d encoded index bytes / %d-byte budget)", ratio(float64(encoded), float64(budget)), encoded, budget)
	res.printf("property: page-ins per search = %.3f (%d page-ins / %d searches); disk reads %d, evictions %d",
		pageIns, p1.PageIns-p0.PageIns, res.attempted, p1.DiskReads-p0.DiskReads, p1.Evictions-p0.Evictions)

	if !o.trace {
		res.metrics["search_ms.p50"] = search.median()
		res.metrics["search_ms.tail"] = search.quantile(tail)
		res.metrics["op_ms.p50"] = ops.median()
		res.metrics["op_ms.tail"] = ops.quantile(tail)
		res.metrics["throughput_ops_s"] = n / elapsed.Seconds()
		res.metrics["heap_mb"] = liveHeapMB(eng)
		return res, nil
	}
	lt := tr.totals()
	recordSearchLayers(res, lt, st)
	sort.Ints(perSearchPageIns)
	if len(perSearchPageIns) > 0 {
		res.printf("trace: median page-ins per traced search = %d (%d traced searches)", perSearchPageIns[len(perSearchPageIns)/2], len(perSearchPageIns))
	}
	res.metrics["graph.steiner_us"] = 1000 * lt.meanMs("graph.steiner")
	res.metrics["index.pageins_per_search"] = pageIns
	res.metrics["index.disk_reads_per_search"] = ratio(float64(p1.DiskReads-p0.DiskReads), n)
	res.metrics["index.evictions_per_search"] = ratio(float64(p1.Evictions-p0.Evictions), n)
	res.metrics["index.resident_bytes"] = float64(p1.ResidentBytes)
	res.metrics["index.budget_ratio"] = ratio(float64(encoded), float64(budget))
	res.metrics["trace.overhead_ratio"] = ratio(tracedSearch.median(), search.median())
	printLayers(res, lt)
	return res, tr.write(buildDir+"/traces", fmt.Sprintf("paged-seed%d.jsonl", o.seed))
}

// searchOnce runs one untraced top-k(10) session.
func searchOnce(eng *seda.Engine, q string) ([]seda.SearchResult, error) {
	s, err := eng.NewSession(q)
	if err != nil {
		return nil, err
	}
	return s.TopK(10)
}
