package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"seda/internal/snapcodec"
	"seda/internal/store"
)

// The v3 shard codec's contract: the compressed payload round-trips both
// resident and paged decodes to identical shard state, re-encodes
// byte-identically from any residency (resident, paged-cold, evicted),
// and rejects malformed payloads at decode time — page-in afterwards is
// infallible by construction.

func encodeShardBytes(tb testing.TB, ix *Index, s int) []byte {
	tb.Helper()
	var w snapcodec.Writer
	if err := ix.EncodeShard(&w, s); err != nil {
		tb.Fatalf("EncodeShard(%d): %v", s, err)
	}
	return w.Bytes()
}

func TestShardCodecV3RoundTrip(t *testing.T) {
	col, _ := buildFixture(t)
	ix := BuildSharded(col, 2, 2)
	for s := 0; s < ix.NumShards(); s++ {
		orig := ix.shards[s]
		data := encodeShardBytes(t, ix, s)

		resident, err := DecodeShard(snapcodec.NewReader(data), col)
		if err != nil {
			t.Fatalf("shard %d: DecodeShard: %v", s, err)
		}
		if resident.data.Load() == nil {
			t.Fatalf("shard %d: resident decode left shard cold", s)
		}
		paged, err := DecodeShardPaged(snapcodec.NewReader(data), col)
		if err != nil {
			t.Fatalf("shard %d: DecodeShardPaged: %v", s, err)
		}
		if paged.data.Load() != nil {
			t.Fatalf("shard %d: paged decode materialized the lazy block", s)
		}
		if paged.raw.Load() == nil {
			t.Fatalf("shard %d: paged decode kept no encoded payload", s)
		}

		// Summary state matches without paging; a paged re-encode splices
		// the stored lazy block and must reproduce the payload exactly.
		if !reflect.DeepEqual(paged.terms, orig.terms) ||
			!reflect.DeepEqual(paged.termDocFreq, orig.termDocFreq) ||
			!reflect.DeepEqual(paged.pathTerms, orig.pathTerms) ||
			!reflect.DeepEqual(paged.pathIDs, orig.pathIDs) {
			t.Fatalf("shard %d: paged summary state differs", s)
		}
		var cold snapcodec.Writer
		if err := paged.encodeInto(&cold); err != nil {
			t.Fatalf("shard %d: cold re-encode: %v", s, err)
		}
		if !bytes.Equal(cold.Bytes(), data) {
			t.Errorf("shard %d: cold re-encode differs from stored payload", s)
		}

		// First touch materializes state identical to the original build.
		for _, sh := range []*Shard{resident, paged} {
			d := mustHot(t, sh)
			if !reflect.DeepEqual(d.postings, mustHot(t, orig).postings) {
				t.Errorf("shard %d: postings differ after decode", s)
			}
			if !reflect.DeepEqual(d.pathNodes, mustHot(t, orig).pathNodes) {
				t.Errorf("shard %d: path-node lists differ after decode", s)
			}
			var w snapcodec.Writer
			if err := sh.encodeInto(&w); err != nil {
				t.Fatalf("shard %d: re-encode: %v", s, err)
			}
			if !bytes.Equal(w.Bytes(), data) {
				t.Errorf("shard %d: hot re-encode differs from stored payload", s)
			}
		}

		// Evict → re-encode → page back in: the cycle is lossless.
		if !paged.tryEvict() {
			t.Fatalf("shard %d: tryEvict on a hot shard reported no transition", s)
		}
		if paged.data.Load() != nil {
			t.Fatalf("shard %d: shard still resident after eviction", s)
		}
		var evicted snapcodec.Writer
		if err := paged.encodeInto(&evicted); err != nil {
			t.Fatalf("shard %d: evicted re-encode: %v", s, err)
		}
		if !bytes.Equal(evicted.Bytes(), data) {
			t.Errorf("shard %d: evicted re-encode differs from stored payload", s)
		}
		if !reflect.DeepEqual(mustHot(t, paged).postings, mustHot(t, orig).postings) {
			t.Errorf("shard %d: postings differ after evict→page-in", s)
		}
	}
}

// TestShardStatsExactBytes: the satellite replacing the old perPosting=64
// estimator — ShardStats reports each shard's exact encoded payload size.
func TestShardStatsExactBytes(t *testing.T) {
	col, _ := buildFixture(t)
	ix := BuildSharded(col, 2, 1)
	for s, st := range ix.ShardStats() {
		want := int64(len(encodeShardBytes(t, ix, s)))
		if st.Bytes != want {
			t.Errorf("shard %d: Bytes = %d, want exact encoded size %d", s, st.Bytes, want)
		}
		if !st.Resident {
			t.Errorf("shard %d: built shard reported non-resident", s)
		}
	}
}

func TestShardCodecHostileInputs(t *testing.T) {
	col := store.NewCollection()
	if _, err := col.AddXML("doc0", []byte(`<a><b>hello world</b><b>world again</b></a>`)); err != nil {
		t.Fatal(err)
	}
	if _, err := col.AddXML("doc1", []byte(`<a><b>hello again</b></a>`)); err != nil {
		t.Fatal(err)
	}
	ix := BuildSharded(col, 1, 1)
	data := encodeShardBytes(t, ix, 0)

	// Truncation sweep: every prefix errors from both decoders — the paged
	// decoder validates the lazy block up front, so a truncated payload
	// can never defer its failure to page-in time.
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeShard(snapcodec.NewReader(data[:cut]), col); err == nil {
			t.Errorf("cut=%d: resident decode accepted a truncated payload", cut)
		}
		if _, err := DecodeShardPaged(snapcodec.NewReader(data[:cut]), col); err == nil {
			t.Errorf("cut=%d: paged decode accepted a truncated payload", cut)
		}
	}

	// Byte-flip sweep: no flip may panic either decoder, and any flip the
	// paged decoder accepts must page in cleanly (decode validates, page-in
	// trusts).
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0xFF
		if sh, err := DecodeShardPaged(snapcodec.NewReader(bad), col); err == nil {
			sh.hot()
		}
		_, _ = DecodeShard(snapcodec.NewReader(bad), col)
	}

	// Any other codec version — the retired uncompressed layout (1) or a
	// future one — is a typed version error from both decoders.
	for _, v := range []int{1, shardCodecV2 + 1} {
		var w snapcodec.Writer
		w.Int(v)
		w.Raw(data[1:])
		if _, err := DecodeShard(snapcodec.NewReader(w.Bytes()), col); !errors.Is(err, snapcodec.ErrVersion) {
			t.Errorf("codec version %d: resident decode err = %v, want ErrVersion", v, err)
		}
		if _, err := DecodeShardPaged(snapcodec.NewReader(w.Bytes()), col); !errors.Is(err, snapcodec.ErrVersion) {
			t.Errorf("codec version %d: paged decode err = %v, want ErrVersion", v, err)
		}
	}

	// Alloc bombs: giant counts in a tiny payload must be rejected by the
	// count guards, not trusted as allocation sizes.
	bomb := func(build func(w *snapcodec.Writer)) {
		t.Helper()
		var w snapcodec.Writer
		build(&w)
		if _, err := DecodeShard(snapcodec.NewReader(w.Bytes()), col); err == nil {
			t.Error("alloc-bomb payload decoded successfully")
		}
		if _, err := DecodeShardPaged(snapcodec.NewReader(w.Bytes()), col); err == nil {
			t.Error("alloc-bomb payload paged-decoded successfully")
		}
	}
	bomb(func(w *snapcodec.Writer) { // vocabulary count far beyond the payload
		w.Int(shardCodecV2)
		w.Int(0)
		w.Int(2)
		w.Int(1 << 30)
	})
	bomb(func(w *snapcodec.Writer) { // posting count far beyond the lazy block
		w.Int(shardCodecV2)
		w.Int(0)
		w.Int(2)
		w.Int(1) // one term
		w.String("hello")
		w.Int(1)       // doc freq
		w.Int(1 << 28) // claimed postings
		w.Int(0)       // no context terms
		w.Int(0)       // empty roster
	})
	bomb(func(w *snapcodec.Writer) { // huge dewey suffix inside the lazy block
		w.Int(shardCodecV2)
		w.Int(0)
		w.Int(2)
		w.Int(1)
		w.String("hello")
		w.Int(1)
		w.Int(1)
		w.Int(0)
		w.Int(0)
		// lazy block: one posting with an absurd suffix length
		w.Int(0)       // doc gap
		w.Int(0)       // shared prefix
		w.Int(1 << 28) // suffix components
	})
	bomb(func(w *snapcodec.Writer) { // roster refCount bomb
		w.Int(shardCodecV2)
		w.Int(0)
		w.Int(2)
		w.Int(0) // no terms
		w.Int(0) // no context terms
		w.Int(1) // one roster path
		w.Uvarint(3)
		w.Int(1 << 28) // claimed refs
	})
}

// FuzzShardDecode drives both shard decoders over mutated payloads. The
// invariant under fuzz: no input panics either decoder, and any input the
// paged decoder accepts must survive a full page-in → evict → page-in
// cycle (paged validation is what lets Shard.hot treat decode failure as
// a programming error). Only the current shard codec version is ever
// accepted; the checked-in testdata seed is a payload in the retired
// uncompressed layout, which must be rejected.
func FuzzShardDecode(f *testing.F) {
	col := store.NewCollection()
	if _, err := col.AddXML("doc0", []byte(`<a><b>hello world hello</b><c>world</c></a>`)); err != nil {
		f.Fatal(err)
	}
	if _, err := col.AddXML("doc1", []byte(`<a><b>again hello</b></a>`)); err != nil {
		f.Fatal(err)
	}
	ix := BuildSharded(col, 2, 1)
	for s := 0; s < ix.NumShards(); s++ {
		var w snapcodec.Writer
		ix.EncodeShard(&w, s)
		f.Add(w.Bytes())
		f.Add(w.Bytes()[:len(w.Bytes())/2])
		f.Add(append([]byte{shardCodecV2 + 1}, w.Bytes()[1:]...)) // a version the decoders reject
	}
	f.Add([]byte{})
	f.Add([]byte{2, 0, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		current := func() {
			if v, n := binary.Uvarint(data); n <= 0 || v != shardCodecV2 {
				t.Fatalf("decoder accepted a payload of shard codec version %d", v)
			}
		}
		if sh, err := DecodeShard(snapcodec.NewReader(data), col); err == nil {
			current()
			sh.hot()
		}
		if sh, err := DecodeShardPaged(snapcodec.NewReader(data), col); err == nil {
			current()
			sh.hot()
			sh.tryEvict()
			sh.hot()
		}
	})
}
