// The lifecycle experiment: what tombstone masking and background
// compaction cost at the engine layer. Per builtin corpus it measures
// the latency of a single-document delete and update (each derives a
// new masked generation), the throughput of compacting an engine whose
// tombstone ratio sits at the sedad default threshold (~30% masked),
// and the query p50 on the masked engine against the compacted one —
// the serving-tier's before/after for a threshold-triggered compaction.
//
// Queries reuse the memory experiment's corpus-derived vocabulary, so
// the masked-vs-compacted comparison runs the same scatter-gather
// workload on both generations.
package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"seda"
)

// lifecycleQueryRounds repeats the derived query set this many times on
// the masked and on the compacted generation; with ~5 queries per
// corpus that is enough samples for a stable p50 while keeping
// `sedabench -exp all` fast.
const lifecycleQueryRounds = 20

func lifecycleExp(scale float64) []lifecycleCorpus {
	var rows []lifecycleCorpus
	fmt.Printf("%-16s %8s %12s %12s %14s %12s %12s\n",
		"corpus", "docs", "delete", "update", "compact", "masked p50", "compacted p50")
	for _, c := range corpora {
		eng, err := seda.NewEngine(c.gen(scale), c.cfg)
		if err != nil {
			fatal(err)
		}
		docs := eng.Collection().Docs()
		if len(docs) < 4 {
			fatal(fmt.Errorf("lifecycle: corpus %s too small at scale %g", c.name, scale))
		}
		row := lifecycleCorpus{Name: c.name, Docs: len(docs)}
		queries := memoryQueries(eng)
		if len(queries) == 0 {
			fatal(fmt.Errorf("lifecycle: no queries derivable from %s vocabulary", c.name))
		}

		// Single-document delete: one masked generation off the full engine.
		start := time.Now()
		if _, _, err := eng.DeleteDocuments(docs[0].Name); err != nil {
			fatal(err)
		}
		row.DeleteNs = time.Since(start).Nanoseconds()

		// Single-document update: re-render an existing document and replace
		// it, which pays the delete mask plus the incremental append.
		var b bytes.Buffer
		if err := docs[1].WriteXML(&b); err != nil {
			fatal(err)
		}
		start = time.Now()
		if _, err := eng.UpdateDocumentXML(docs[1].Name, b.Bytes()); err != nil {
			fatal(err)
		}
		row.UpdateNs = time.Since(start).Nanoseconds()

		// Mask ~30% of the corpus — the sedad default compact-threshold —
		// then measure the masked generation, the compaction itself, and the
		// compacted generation.
		dead := len(docs) * 3 / 10
		if dead == 0 {
			dead = 1
		}
		names := make([]string, 0, dead)
		for i := 0; i < dead; i++ {
			names = append(names, docs[i].Name)
		}
		masked, n, err := eng.DeleteDocuments(names...)
		if err != nil {
			fatal(err)
		}
		row.DeadDocs = n
		row.MaskedP50Ns = lifecycleP50(masked, queries)

		start = time.Now()
		compacted, err := masked.Compact()
		if err != nil {
			fatal(err)
		}
		row.CompactNs = time.Since(start).Nanoseconds()
		row.CompactDocsPerSec = float64(compacted.NumLiveDocs()) / (float64(row.CompactNs) / 1e9)
		row.CompactedP50Ns = lifecycleP50(compacted, queries)

		fmt.Printf("%-16s %8d %12v %12v %14s %12v %12v\n", c.name, row.Docs,
			time.Duration(row.DeleteNs).Round(time.Microsecond),
			time.Duration(row.UpdateNs).Round(time.Microsecond),
			fmt.Sprintf("%v (%.0f docs/s)", time.Duration(row.CompactNs).Round(time.Millisecond), row.CompactDocsPerSec),
			time.Duration(row.MaskedP50Ns).Round(time.Microsecond),
			time.Duration(row.CompactedP50Ns).Round(time.Microsecond))
		rows = append(rows, row)
	}
	return rows
}

// lifecycleP50 runs the derived query set against one engine generation
// and reports the median per-query latency.
func lifecycleP50(eng *seda.Engine, queries []string) int64 {
	lat := make([]time.Duration, 0, lifecycleQueryRounds*len(queries))
	for round := 0; round < lifecycleQueryRounds; round++ {
		for _, q := range queries {
			start := time.Now()
			s, err := eng.NewSession(q)
			if err != nil {
				fatal(err)
			}
			if _, err := s.TopK(10); err != nil {
				fatal(err)
			}
			lat = append(lat, time.Since(start))
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)/2].Nanoseconds()
}

// lifecycleCorpus is one corpus row of BENCH_lifecycle.json.
type lifecycleCorpus struct {
	Name      string `json:"name"`
	Docs      int    `json:"docs"`
	DeadDocs  int    `json:"dead_docs"`  // documents masked before compaction (~30%)
	DeleteNs  int64  `json:"delete_ns"`  // one-document delete (new masked generation)
	UpdateNs  int64  `json:"update_ns"`  // one-document update (mask + incremental append)
	CompactNs int64  `json:"compact_ns"` // physical rewrite of the ~30%-dead engine

	CompactDocsPerSec float64 `json:"compact_docs_per_sec"` // survivors rewritten per second
	MaskedP50Ns       int64   `json:"masked_p50_ns"`        // query p50 with tombstones consulted
	CompactedP50Ns    int64   `json:"compacted_p50_ns"`     // query p50 after the rewrite
}
