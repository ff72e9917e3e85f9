package main

import (
	"os"
	"runtime"
	"time"

	"seda"
)

// recordBuild records the construction phases the engine timed itself and
// the size of its data graph.
func recordBuild(res *result, eng *seda.Engine) {
	ms := func(phase string) float64 { return float64(eng.BuildTimings[phase].Nanoseconds()) / 1e6 }
	res.metrics["index.build_ms"] = ms("index")
	res.metrics["graph.build_ms"] = ms("graph")
	res.metrics["dataguide.build_ms"] = ms("dataguide")
	res.metrics["graph.edges"] = float64(eng.Graph().NumEdges())
}

// measureLoads saves eng once and loads the snapshot n times under cfg:
// load_ms.p50 is the cold-start cost of the workload's engine.
func measureLoads(o options, res *result, eng *seda.Engine, cfg seda.Config, n int) error {
	path := o.snapshotPath("loads")
	defer os.Remove(path)
	t0 := time.Now()
	if err := seda.SaveEngineFile(path, eng); err != nil {
		return err
	}
	res.metrics["snapshot.save_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	res.metrics["snapshot.bytes"] = float64(fi.Size())
	var loads []time.Duration
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := seda.LoadEngineFile(path, cfg); err != nil {
			return err
		}
		loads = append(loads, time.Since(t0))
	}
	med := float64(medianDuration(loads).Nanoseconds()) / 1e6
	res.metrics["load_ms.p50"] = med
	res.metrics["snapshot.load_ms"] = med
	res.printf("load_ms.p50 = %.3fms (median of %d loads of a %d-byte snapshot)", med, n, fi.Size())
	return nil
}

// recordSearchLayers records the topk and index-fetch figures of the
// traced searches.
func recordSearchLayers(res *result, lt layerTotals, st searchStats) {
	n := float64(st.searches)
	res.metrics["topk.search_ms"] = lt.meanMs("topk.search")
	res.metrics["topk.rank_ms"] = lt.meanMs("topk.rank")
	res.metrics["index.fetch_ms"] = lt.meanMs("index.fetch")
	res.metrics["topk.tuples_scored"] = ratio(float64(st.tuples), n)
	res.metrics["topk.units_scanned"] = ratio(float64(st.units), n)
	res.metrics["topk.waves"] = ratio(float64(st.waves), n)
	res.metrics["topk.useful_ratio"] = ratio(float64(st.results), float64(st.tuples))
}

// printLayers reports every span name of a traced run: calls, mean
// duration and total self time.
func printLayers(res *result, lt layerTotals) {
	for _, name := range lt.sortedNames() {
		res.printf("span %-22s calls=%-7d mean=%9.3fms self_total=%10.3fms", name, lt.calls[name], lt.meanMs(name),
			float64(lt.self[name].Nanoseconds())/1e6)
	}
}
