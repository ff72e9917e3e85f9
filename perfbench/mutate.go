package main

// The mutate workload: closed loop, one client, on a snapshot-loaded
// Mondial engine. It streams seeded add, update and delete writes, each
// followed by searches on the new generation, and compacts whenever the
// tombstone ratio crosses the registry default of 0.3.
//
// Why: writes run beside reads and use the index, graph and dataguide
// layers differently — extend and rebuild instead of query — so a change
// that speeds up explore can slow incremental ingest. Without it the
// document lifecycle would go unmeasured.

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"seda"
)

const (
	mutateScale  = 0.1
	mutateShards = 2
	// mutateFreshScale generates the corpus the added documents come
	// from: the documents it has beyond the base corpus.
	mutateFreshScale = 0.4
	mutateTerms      = 16
	mutateSetups     = 5
	mutateLoads      = 11
	mutateWarmup     = 8
	// mutateCompactAt is sedad's default compaction threshold.
	mutateCompactAt = 0.3
	// mutateCheckEvery is how many writes pass between checkpoints that
	// compare the engine against a fresh build over the survivors.
	mutateCheckEvery   = 50
	mutateExpectedOps  = 500
	mutateSnapshotName = "mutate"
)

func mutateConfig() seda.Config {
	cfg := seda.MondialConfig()
	cfg.Shards = mutateShards
	return cfg
}

// rawDocs renders a collection's documents as named XML.
func rawDocs(col *seda.Collection) ([]xmlDoc, error) {
	out := make([]xmlDoc, 0, col.NumDocs())
	for _, d := range col.Docs() {
		var b bytes.Buffer
		if err := d.WriteXML(&b); err != nil {
			return nil, err
		}
		out = append(out, xmlDoc{Name: d.Name, XML: b.Bytes()})
	}
	return out, nil
}

// mutateInputs are the base corpus as raw XML and the fresh documents
// adds draw from: the generator's documents at a larger scale that the
// base corpus lacks.
func mutateInputs() (base, fresh []xmlDoc, err error) {
	if base, err = rawDocs(seda.Mondial(mutateScale)); err != nil {
		return nil, nil, err
	}
	all, err := rawDocs(seda.Mondial(mutateFreshScale))
	if err != nil {
		return nil, nil, err
	}
	have := map[string]bool{}
	for _, d := range base {
		have[d.Name] = true
	}
	for _, d := range all {
		if !have[d.Name] {
			fresh = append(fresh, d)
		}
	}
	return base, fresh, nil
}

func collectionOf(docs []xmlDoc) (*seda.Collection, error) {
	col := seda.NewCollection()
	for _, d := range docs {
		if _, err := col.AddXML(d.Name, d.XML); err != nil {
			return nil, err
		}
	}
	return col, nil
}

// answers renders the top-k of every pool query by document name, so an
// engine with tombstones compares equal to a fresh build.
func answers(eng *seda.Engine, queries []string) ([]string, error) {
	out := make([]string, len(queries))
	for i, q := range queries {
		rs, err := searchOnce(eng, q)
		if err != nil {
			return nil, err
		}
		out[i] = renderResults(eng, rs)
	}
	return out, nil
}

// checkpoint compares eng against a fresh build over the
// survivors; each differing query is a failure.
func checkpoint(res *result, eng *seda.Engine, live []xmlDoc, queries []string, corrupt bool) error {
	col, err := collectionOf(live)
	if err != nil {
		return err
	}
	ref, err := seda.NewEngine(col, seda.Config{Discover: seda.MondialConfig().Discover, Shards: 1, Parallelism: 1})
	if err != nil {
		return err
	}
	want, err := answers(ref, queries)
	if err != nil {
		return err
	}
	if corrupt {
		want[0] += "corrupted\n"
	}
	got, err := answers(eng, queries)
	if err != nil {
		return err
	}
	for i := range queries {
		res.check(got[i] == want[i], fmt.Sprintf("search %q differs from a fresh build over the %d survivors", queries[i], len(live)))
	}
	return nil
}

// applyWrite derives the write's generation.
func applyWrite(eng *seda.Engine, w writeOp) (*seda.Engine, error) {
	switch w.Kind {
	case writeAdd:
		docs := make([]seda.IngestDoc, len(w.Docs))
		for i, d := range w.Docs {
			docs[i] = seda.IngestDoc{Name: d.Name, XML: d.XML}
		}
		return eng.AddDocumentsXML(docs)
	case writeUpdate:
		return eng.UpdateDocumentXML(w.Docs[0].Name, w.Docs[0].XML)
	default:
		next, _, err := eng.DeleteDocuments(w.Names...)
		return next, err
	}
}

// writePhase maps a write kind to the phase prefix its generation's
// BuildTimings use.
var writePhase = map[writeKind]string{writeAdd: "ingest", writeUpdate: "update", writeDelete: "delete"}

func runMutate(o options) (*result, error) {
	res := newResult()
	res.lines = append(res.lines, envBlock(o, map[string]any{
		"corpus": "mondial", "scale": mutateScale, "fresh_scale": mutateFreshScale, "shards": mutateShards,
		"compact_threshold": mutateCompactAt, "check_every_writes": mutateCheckEvery, "setups": mutateSetups,
	}))
	base, fresh, err := mutateInputs()
	if err != nil {
		return nil, err
	}
	cfg := mutateConfig()

	// Set-up, timed and repeated: build, save, load, warm up.
	var eng *seda.Engine
	var queries []string
	var setups []time.Duration
	for i := 0; i < mutateSetups; i++ {
		col, err := collectionOf(base)
		if err != nil {
			return nil, err
		}
		path := o.snapshotPath(fmt.Sprintf("%s-%d", mutateSnapshotName, i))
		runtime.GC()
		t0 := time.Now()
		built, err := seda.NewEngine(col, cfg)
		if err != nil {
			return nil, err
		}
		if err := seda.SaveEngineFile(path, built); err != nil {
			return nil, err
		}
		if i == 0 {
			recordBuild(res, built)
			if err := measureLoads(o, res, built, cfg, mutateLoads); err != nil {
				return nil, err
			}
			queries = vocabQueries(built, o.seed, "mutate", mutateTerms)
		}
		if eng, err = seda.LoadEngineFile(path, cfg); err != nil {
			return nil, err
		}
		for w := 0; w < mutateWarmup; w++ {
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
	stream := newWriteStream(o.seed, base, fresh, len(queries))
	var writes, search, tracedSearch, masked samples
	byKind := map[writeKind]*samples{writeAdd: {}, writeUpdate: {}, writeDelete: {}}
	phase := map[string]time.Duration{}
	var st searchStats
	var compactions, tracedWrites int
	var compactTime time.Duration
	var peak float64
	var paused time.Duration
	rw := startRuntimeWindow()
	start := time.Now()
	op := 0
	for ; time.Since(start)-paused < o.seconds; op++ {
		w := stream.next()
		var opTr *tracer
		if op%2 == 0 {
			opTr = tr
		}
		name := "lifecycle." + string(w.Kind)
		id := opTr.begin(op, -1, name)
		t0 := time.Now()
		next, err := applyWrite(eng, w)
		d := time.Since(t0)
		opTr.end(id)
		res.attempted++
		if err != nil {
			// The model of the survivors has moved on without the engine,
			// so the run cannot go on.
			res.check(false, fmt.Sprintf("write %d (%s): %v", op, w, err))
			break
		}
		eng = next
		writes.add(d)
		byKind[w.Kind].add(d)
		if opTr != nil {
			tracedWrites++
			p := writePhase[w.Kind]
			for _, layer := range []string{"index", "graph", "dataguide"} {
				phase[layer] += eng.BuildTimings[p+"-"+layer]
				opTr.child(op, id, layer+".build", eng.BuildTimings[p+"-"+layer])
			}
		}
		ratioNow := eng.TombstoneRatio()
		if ratioNow > peak {
			peak = ratioNow
		}
		for _, qi := range w.Searches {
			res.attempted++
			s, err := eng.NewSession(queries[qi])
			var searchTime time.Duration
			if err == nil {
				_, searchTime, err = topK(s, 10, opTr, op, -1, &st)
			}
			if err != nil {
				res.check(false, fmt.Sprintf("search %q after write %d: %v", queries[qi], op, err))
				continue
			}
			if opTr != nil {
				tracedSearch.add(searchTime)
			} else {
				search.add(searchTime)
			}
			if ratioNow > 0 {
				masked.add(searchTime)
			}
		}
		if ratioNow > mutateCompactAt {
			id := opTr.begin(op, -1, "lifecycle.compact")
			t0 := time.Now()
			if eng, err = eng.Compact(); err != nil {
				return nil, fmt.Errorf("compact after write %d: %w", op, err)
			}
			compactTime += time.Since(t0)
			opTr.end(id)
			compactions++
		}
		if (op+1)%mutateCheckEvery == 0 {
			t0 := time.Now()
			if err := checkpoint(res, eng, stream.live, queries, o.corrupt); err != nil {
				return nil, err
			}
			paused += time.Since(t0)
		}
	}
	elapsed := time.Since(start) - paused
	rw.stop(res, len(writes))
	if err := checkpoint(res, eng, stream.live, queries, o.corrupt); err != nil {
		return nil, err
	}

	tail := tailFor(mutateExpectedOps)
	res.printf("workload mutate: closed loop, 1 client, %d writes and %d searches in %.2fs measured (checkpoints excluded)",
		len(writes), len(search)+len(tracedSearch), elapsed.Seconds())
	res.printf("%s", writes.describe("write_ms (one add, update or delete generation; op_ms)", tail))
	res.printf("%s", search.describe("search_ms (top-k on the newest generation)", tail))
	for _, k := range []writeKind{writeAdd, writeUpdate, writeDelete} {
		res.printf("  %s: n=%d p50=%.3fms", k, len(*byKind[k]), byKind[k].median())
	}
	res.printf("property: peak tombstone ratio = %.4f (threshold %.2f); compaction cycles completed = %d (%.1fms total)",
		peak, mutateCompactAt, compactions, float64(compactTime.Nanoseconds())/1e6)

	if !o.trace {
		res.metrics["search_ms.p50"] = search.median()
		res.metrics["search_ms.tail"] = search.quantile(tail)
		res.metrics["op_ms.p50"] = writes.median()
		res.metrics["op_ms.tail"] = writes.quantile(tail)
		res.metrics["throughput_ops_s"] = float64(len(writes)) / elapsed.Seconds()
		// Measured on the compacted engine, so the figure does not depend
		// on where in a compaction cycle the run stopped.
		if eng.TombstoneRatio() > 0 {
			if eng, err = eng.Compact(); err != nil {
				return nil, err
			}
		}
		res.metrics["heap_mb"] = liveHeapMB(eng)
		return res, nil
	}
	lt := tr.totals()
	recordSearchLayers(res, lt, st)
	tw := float64(tracedWrites)
	res.metrics["index.build_ms"] = float64(phase["index"].Nanoseconds()) / 1e6 / tw
	res.metrics["graph.build_ms"] = float64(phase["graph"].Nanoseconds()) / 1e6 / tw
	res.metrics["dataguide.build_ms"] = float64(phase["dataguide"].Nanoseconds()) / 1e6 / tw
	res.metrics["graph.edges"] = float64(eng.Graph().NumEdges())
	res.metrics["lifecycle.add_ms"] = lt.meanMs("lifecycle.add")
	res.metrics["lifecycle.update_ms"] = lt.meanMs("lifecycle.update")
	res.metrics["lifecycle.delete_ms"] = lt.meanMs("lifecycle.delete")
	res.metrics["lifecycle.compact_ms"] = ratio(float64(compactTime.Nanoseconds())/1e6, float64(compactions))
	res.metrics["lifecycle.compactions"] = float64(compactions)
	res.metrics["lifecycle.tombstone_ratio_max"] = peak
	res.metrics["lifecycle.masked_search_ms"] = masked.median()
	res.metrics["trace.overhead_ratio"] = ratio(tracedSearch.median(), search.median())
	res.printf("trace: build phases are per traced write generation; lifecycle.masked_search_ms is the p50 over %d searches on masked generations", len(masked))
	printLayers(res, lt)
	return res, tr.write(buildDir+"/traces", fmt.Sprintf("mutate-seed%d.jsonl", o.seed))
}
