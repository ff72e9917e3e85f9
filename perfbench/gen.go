package main

// Seeded input generators. Every query and write a workload sends is
// derived here from the --seed and from the corpus itself — its values,
// its path dictionary, its vocabulary and its generator — so the program
// under test sees only generated inputs, and one seed always yields the
// same op stream (TestOpStreamsAreSeeded).

import (
	"fmt"
	"math/rand/v2"
	"regexp"
	"sort"
	"strings"

	"seda"
	"seda/internal/query"
)

// newRand returns the seeded generator of one named input stream.
func newRand(seed uint64, stream string) *rand.Rand {
	return rand.New(rand.NewPCG(seed, fnv64([]byte(stream))))
}

// A loopQuery is one member of the Query-1 family: a country value, and
// the trade partner and measure paths of one partner list. Terms is 2
// (country × measure) or 3 (country × partner × measure), as in the
// paper's `(*, "United States") AND (trade_country, *) AND (percentage, *)`.
type loopQuery struct {
	Country string
	Partner string // e.g. /country/economy/import_partners/item/trade_country
	Measure string // the measure sibling of Partner
	Terms   int
}

// Text is the query as the user types it: leaf labels only, so the
// context summary has something to disambiguate.
func (q loopQuery) Text() string {
	measure := (`(` + leaf(q.Measure) + `, *)`)
	if q.Terms == 2 {
		return fmt.Sprintf(`(*, %q) AND %s`, q.Country, measure)
	}
	return fmt.Sprintf(`(*, %q) AND (%s, *) AND %s`, q.Country, leaf(q.Partner), measure)
}

// refinements are the context paths the analyst picks per term.
func (q loopQuery) refinements() []string {
	if q.Terms == 2 {
		return []string{"/country/name", q.Measure}
	}
	return []string{"/country/name", q.Partner, q.Measure}
}

func (q loopQuery) String() string {
	return fmt.Sprintf("%s | refine %s", q.Text(), strings.Join(q.refinements(), " "))
}

func leaf(path string) string { return path[strings.LastIndexByte(path, '/')+1:] }

// loopFamily enumerates the Query-1 family the corpus supports: every
// country name in the corpus, crossed with every partner list whose item
// carries both a trade_country and a percentage path, at 2 and 3 terms.
func loopFamily(col *seda.Collection) []loopQuery {
	seen := map[string]bool{}
	var countries []string
	for _, d := range col.Docs() {
		if d.Root.Tag != "country" {
			continue
		}
		if n := d.Root.FirstChild("name"); n != nil && !seen[n.Content()] {
			seen[n.Content()] = true
			countries = append(countries, n.Content())
		}
	}
	dict := col.Dict()
	var partners []string
	for _, p := range dict.AllPaths() {
		path := dict.Path(p)
		if strings.HasSuffix(path, "/item/trade_country") &&
			dict.LookupPath(strings.TrimSuffix(path, "trade_country")+"percentage") != 0 {
			partners = append(partners, path)
		}
	}
	sort.Strings(partners)
	var out []loopQuery
	for _, c := range countries {
		for _, p := range partners {
			m := strings.TrimSuffix(p, "trade_country") + "percentage"
			for _, terms := range []int{2, 3} {
				out = append(out, loopQuery{Country: c, Partner: p, Measure: m, Terms: terms})
			}
		}
	}
	return out
}

// explorePool is the analyzable family in seeded order; the explore loop
// cycles through it.
func explorePool(col *seda.Collection, seed uint64) []loopQuery {
	fam := analyzable(loopFamily(col))
	r := newRand(seed, "explore")
	r.Shuffle(len(fam), func(i, j int) { fam[i], fam[j] = fam[j], fam[i] })
	return fam
}

// vocabQueries derives 1- and 2-term `*`-context queries from the index
// vocabulary: n mid-frequency terms, one seeded pick from each of n
// document-frequency strata (so every seed gets the same spread of
// frequencies), each alone and paired with the next.
func vocabQueries(eng *seda.Engine, seed uint64, stream string, n int) []string {
	ix := eng.Index()
	numDocs := eng.Collection().NumDocs()
	var terms []string
	for _, t := range ix.Terms() {
		df := ix.DocFreq(t)
		if df < 2 || df > numDocs/2+1 || len(t) < 3 {
			continue
		}
		if _, err := query.Parse(fmt.Sprintf("(*, %s)", t)); err != nil {
			continue
		}
		terms = append(terms, t)
	}
	sort.SliceStable(terms, func(i, j int) bool { return ix.DocFreq(terms[i]) < ix.DocFreq(terms[j]) })
	r := newRand(seed, stream)
	var picked []string
	for k := 0; k < n && k < len(terms); k++ {
		lo, hi := k*len(terms)/n, (k+1)*len(terms)/n
		if hi > lo {
			picked = append(picked, terms[lo+r.IntN(hi-lo)])
		}
	}
	r.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
	var qs []string
	for i, t := range picked {
		qs = append(qs, fmt.Sprintf("(*, %s)", t))
		if i+1 < len(picked) {
			qs = append(qs, fmt.Sprintf("(*, %s) AND (*, %s)", t, picked[i+1]))
		}
	}
	return qs
}

// --- serve ---

// serveOp is one open-loop request sequence: a session on a pool query,
// then its top-k; a "loop" op goes on through the rest of Figure 6.
type serveOp struct {
	Query int  // index into the serve pool
	Loop  bool // contexts, refine, connections, choose, results, cube
}

// serveOpStream draws ops with Zipf-skewed query popularity. The
// popularity order is a property of the pool, not of the seed: it
// interleaves cost strata — rank r goes to the next member of stratum
// r mod serveStrata, the pool split by a deterministic cost such as
// tuples scored — so the hot queries and the cache misses mix cheap and
// expensive queries alike on every seed. The seed draws the sequence.
// serveLoopShare of the ops are loop ops, which draw uniformly from the
// serveLoopQueries most popular queries.
type serveOpStream struct {
	r    *rand.Rand
	zipf *rand.Zipf
	perm []int // popularity rank -> pool index
}

const (
	// serveZipfS is the Zipf exponent of query popularity.
	serveZipfS = 1.1
	// serveStrata is how many cost strata the popularity order cycles.
	serveStrata = 8
	// serveLoopShare is the share of ops that run the whole loop.
	serveLoopShare = 0.15
	// serveLoopQueries bounds the queries loop ops use, and so the
	// untimed reference work for them.
	serveLoopQueries = 16
)

func newServeOpStream(seed uint64, costs []int) *serveOpStream {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] < costs[order[b]] })
	var perm []int
	for i := 0; len(perm) < len(order); i++ {
		k, j := i%serveStrata, i/serveStrata
		lo, hi := k*len(order)/serveStrata, (k+1)*len(order)/serveStrata
		if lo+j < hi {
			perm = append(perm, order[lo+j])
		}
	}
	s := &serveOpStream{perm: perm}
	return s.fork(seed, "serve")
}

// fork returns a stream with the same popularity order and draws of its
// own, for warming the cache without consuming the measured stream.
func (s *serveOpStream) fork(seed uint64, stream string) *serveOpStream {
	r := newRand(seed, stream)
	return &serveOpStream{r: r, zipf: rand.NewZipf(r, serveZipfS, 1, uint64(len(s.perm)-1)), perm: s.perm}
}

// loopQueries are the pool indexes loop ops draw from.
func (s *serveOpStream) loopQueries() []int { return s.perm[:serveLoopQueries] }

func (s *serveOpStream) next() serveOp {
	if s.r.Float64() < serveLoopShare {
		return serveOp{Query: s.perm[s.r.IntN(serveLoopQueries)], Loop: true}
	}
	return serveOp{Query: s.perm[s.zipf.Uint64()]}
}

// --- mutate ---

// writeKind is the kind of one mutate write.
type writeKind string

const (
	writeAdd    writeKind = "add"
	writeUpdate writeKind = "update"
	writeDelete writeKind = "delete"
)

// xmlDoc is one named raw XML document.
type xmlDoc struct {
	Name string
	XML  []byte
}

// writeOp is one write: the documents it adds or the body of the one it
// updates, or the names it deletes; then the searches that follow it.
type writeOp struct {
	Kind     writeKind
	Docs     []xmlDoc // add: new documents; update: the one replacement
	Names    []string // delete: names removed
	Searches []int    // indexes into the query pool
}

func (w writeOp) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", w.Kind)
	for _, d := range w.Docs {
		fmt.Fprintf(&b, " %s:%x", d.Name, fnv64(d.XML))
	}
	for _, n := range w.Names {
		fmt.Fprintf(&b, " -%s", n)
	}
	fmt.Fprintf(&b, " searches=%v", w.Searches)
	return b.String()
}

// fnv64 is the FNV-1a hash of b.
func fnv64(b []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// writeStream generates a seeded write stream against a model of the
// live documents: it knows which names exist, so every delete and update
// addresses a live document, and it tracks the survivors in engine id
// order (deletes remove, adds and updates append) — the corpus a
// fresh reference build must ingest.
type writeStream struct {
	r       *rand.Rand
	live    []xmlDoc // survivors in engine id order
	fresh   []xmlDoc // not yet added documents from the corpus generator
	target  int      // the live corpus size writes lean toward
	queries int
	rev     int
}

// mutateSearchesPerWrite is how many searches follow each write.
const mutateSearchesPerWrite = 2

func newWriteStream(seed uint64, base, fresh []xmlDoc, queries int) *writeStream {
	return &writeStream{
		r:       newRand(seed, "mutate"),
		live:    append([]xmlDoc(nil), base...),
		target:  len(base),
		fresh:   append([]xmlDoc(nil), fresh...),
		queries: queries,
	}
}

// statValue matches the numeric statistics of a generated document; an
// update rewrites them.
var statValue = regexp.MustCompile(`(_stat_[0-9]+>)([0-9]+)(<)`)

func (s *writeStream) next() writeOp {
	var op writeOp
	// Adds and deletes lean toward the initial corpus size, so the live
	// corpus stays near it; updates make 30% of the writes.
	roll := s.r.Float64()
	addShare := 0.45
	if len(s.live) > s.target {
		addShare = 0.25
	}
	switch {
	case len(s.fresh) > 0 && (roll < addShare || len(s.live) < 8):
		n := 1 + s.r.IntN(3)
		if n > len(s.fresh) {
			n = len(s.fresh)
		}
		op = writeOp{Kind: writeAdd, Docs: s.fresh[:n:n]}
		s.fresh = s.fresh[n:]
		s.live = append(s.live, op.Docs...)
	case roll < addShare+0.3:
		i := s.r.IntN(len(s.live))
		d := s.live[i]
		s.rev++
		body := statValue.ReplaceAll(d.XML, []byte(fmt.Sprintf("${1}%d${3}", 100000+s.rev)))
		nd := xmlDoc{Name: d.Name, XML: body}
		op = writeOp{Kind: writeUpdate, Docs: []xmlDoc{nd}}
		s.live = append(append(s.live[:i:i], s.live[i+1:]...), nd)
	default:
		n := 1 + s.r.IntN(3)
		for k := 0; k < n && len(s.live) > 1; k++ {
			i := s.r.IntN(len(s.live))
			op.Names = append(op.Names, s.live[i].Name)
			s.live = append(s.live[:i:i], s.live[i+1:]...)
		}
		op.Kind = writeDelete
	}
	for k := 0; k < mutateSearchesPerWrite; k++ {
		op.Searches = append(op.Searches, s.r.IntN(s.queries))
	}
	return op
}
