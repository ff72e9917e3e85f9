package index

import (
	"reflect"
	"testing"

	"seda/internal/snapcodec"
	"seda/internal/store"
)

// TestCodecRoundTrip: an index persisted shard by shard and reassembled
// with FromShards answers every read exactly like the original.
func TestCodecRoundTrip(t *testing.T) {
	col, _ := buildFixture(t)
	ix := BuildSharded(col, 2, 1)

	shards := make([]*Shard, ix.NumShards())
	for s := range shards {
		sh, err := DecodeShard(snapcodec.NewReader(encodeShardBytes(t, ix, s)), col)
		if err != nil {
			t.Fatalf("DecodeShard(%d): %v", s, err)
		}
		shards[s] = sh
	}
	got, err := FromShards(col, shards)
	if err != nil {
		t.Fatalf("FromShards: %v", err)
	}

	if got.NumTerms() != ix.NumTerms() {
		t.Fatalf("NumTerms = %d, want %d", got.NumTerms(), ix.NumTerms())
	}
	for _, term := range ix.terms {
		if !reflect.DeepEqual(mustLookup(t, got, term), mustLookup(t, ix, term)) {
			t.Errorf("postings mismatch for %q", term)
		}
		if got.DocFreq(term) != ix.DocFreq(term) {
			t.Errorf("DocFreq mismatch for %q", term)
		}
	}
	for term := range ix.pathTerms {
		if !reflect.DeepEqual(got.PathsForTerm(term), ix.PathsForTerm(term)) {
			t.Errorf("context index mismatch for %q", term)
		}
	}
	if !reflect.DeepEqual(got.AllPaths(), ix.AllPaths()) {
		t.Error("AllPaths mismatch")
	}
	for _, p := range ix.AllPaths() {
		if !reflect.DeepEqual(mustNodesAtPath(t, got, p), mustNodesAtPath(t, ix, p)) {
			t.Errorf("NodesAtPath mismatch for %d", p)
		}
	}

	// Phrase evaluation exercises positions, which are delta-encoded.
	if !reflect.DeepEqual(
		mustPhrasePostings(t, got, []string{"united", "states"}),
		mustPhrasePostings(t, ix, []string{"united", "states"})) {
		t.Error("phrase postings mismatch")
	}
}

// TestCodecHostileInputs: refs naming documents outside the shard or the
// collection are rejected at decode, and FromShards refuses a roster that
// does not partition the collection.
func TestCodecHostileInputs(t *testing.T) {
	col := store.NewCollection()
	if _, err := col.AddXML("doc0", []byte(`<a><b>hello world</b></a>`)); err != nil {
		t.Fatal(err)
	}

	// A shard range beyond the collection.
	var wr snapcodec.Writer
	wr.Int(shardCodecV2)
	wr.Int(0)
	wr.Int(99)
	wr.Int(0) // no terms
	wr.Int(0) // no context terms
	wr.Int(0) // empty roster
	if _, err := DecodeShard(snapcodec.NewReader(wr.Bytes()), col); err == nil {
		t.Error("shard range beyond the collection should fail")
	}

	// A posting whose doc gap leaves the shard's range.
	var wp snapcodec.Writer
	wp.Int(shardCodecV2)
	wp.Int(0)
	wp.Int(1)
	wp.Int(1) // one term
	wp.Int(0) // shared prefix
	wp.String("hello")
	wp.Uvarint(0) // df 1, one posting
	wp.Int(0)     // no context terms
	wp.Int(0)     // empty roster
	wp.Byte(byte(refEscGap<<6 | 1))
	wp.Int(5) // doc gap 3+5 from lo
	wp.Uvarint(1)
	for _, decode := range []func(*snapcodec.Reader, *store.Collection) (*Shard, error){DecodeShard, DecodeShardPaged} {
		if _, err := decode(snapcodec.NewReader(wp.Bytes()), col); err == nil {
			t.Error("posting naming a document outside the shard should fail")
		}
	}

	// Shards that skip a document do not form an index.
	ix := Build(col)
	sh, err := DecodeShard(snapcodec.NewReader(encodeShardBytes(t, ix, 0)), col)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromShards(col, []*Shard{sh, sh}); err == nil {
		t.Error("overlapping shard roster should fail")
	}
}
