package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"seda"
)

// opStreams renders the first ops of every workload's generated input
// stream for one seed.
func opStreams(t *testing.T, seed uint64) map[string]string {
	t.Helper()
	out := map[string]string{}
	var b strings.Builder
	for _, q := range explorePool(seda.WorldFactbook(exploreScale), seed) {
		fmt.Fprintln(&b, q)
	}
	out["explore"] = b.String()

	eng, err := seda.NewEngine(seda.WorldFactbook(0.05), seda.Config{})
	if err != nil {
		t.Fatal(err)
	}
	queries := vocabQueries(eng, seed, "paged", pagedTerms)
	picks := newRand(seed, "paged-ops")
	b.Reset()
	for i := 0; i < 200; i++ {
		fmt.Fprintln(&b, queries[picks.IntN(len(queries))])
	}
	out["paged"] = b.String()

	costs := make([]int, 100)
	for i := range costs {
		costs[i] = i % 7
	}
	ops := newServeOpStream(seed, costs)
	b.Reset()
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, "%+v\n", ops.next())
	}
	out["serve"] = b.String()

	base, fresh, err := mutateInputs()
	if err != nil {
		t.Fatal(err)
	}
	ws := newWriteStream(seed, base, fresh, 31)
	b.Reset()
	for i := 0; i < 300; i++ {
		fmt.Fprintln(&b, ws.next())
	}
	for _, d := range ws.live {
		fmt.Fprintf(&b, "%s %x\n", d.Name, fnv64(d.XML))
	}
	out["mutate"] = b.String()
	return out
}

func TestOpStreamsAreSeeded(t *testing.T) {
	a, again, other := opStreams(t, 1), opStreams(t, 1), opStreams(t, 2)
	for name, s := range a {
		if s == "" {
			t.Errorf("%s: empty op stream", name)
		}
		if s != again[name] {
			t.Errorf("%s: the same seed gave different op streams", name)
		}
		if s == other[name] {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", name)
		}
	}
}

// runShort runs a workload briefly in a temporary directory.
func runShort(t *testing.T, w workload, corrupt bool) *result {
	t.Helper()
	res, err := w.run(options{workload: w.name, seed: 7, seconds: 300 * time.Millisecond, dir: t.TempDir(), corrupt: corrupt})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

// TestAnswerCheck runs every workload briefly twice: with the true
// references no op fails, and with corrupted references the wrong answers
// drive the error rate above zero — so the check is not vacuous.
func TestAnswerCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if res := runShort(t, w, false); res.failed != 0 || res.attempted == 0 {
				t.Errorf("true references: %d of %d ops failed:\n%s", res.failed, res.attempted, strings.Join(res.lines, "\n"))
			}
			if res := runShort(t, w, true); res.failed == 0 {
				t.Errorf("corrupted references: error rate is 0 over %d ops", res.attempted)
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the benchmark
// prints in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []struct{ Name, Unit string }, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", what, len(declared), len(printed))
			return
		}
		for i, d := range declared {
			if d.Name != printed[i].name || d.Unit != printed[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]", what, i, d.Name, d.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark has %s", i, w.Name, workloads[i].name)
		}
	}
}
