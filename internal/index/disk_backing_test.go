package index

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"seda/internal/snapcodec"
)

// Disk-backed residency, white-box: a shard bound to its encoded section
// in a file truly evicts (no in-heap encoded payload), pages back in
// through one CRC-verified read no matter how many goroutines race for
// it, and classifies a hostile backstore as an error — never a panic,
// never a silently wrong answer.

// bindFixture builds the single-shard fixture, writes its encoded payload
// to a file, and binds the shard to it. The section is the whole file
// (offset 0), which is all BackingRef needs — container framing is the
// loader's business.
func bindFixture(t *testing.T) (ix *Index, p *Pager, path string, payload []byte) {
	t.Helper()
	_, ix = buildFixture(t)
	if ix.NumShards() != 1 {
		t.Fatalf("fixture has %d shards, want 1", ix.NumShards())
	}
	payload = encodeShardBytes(t, ix, 0)
	path = filepath.Join(t.TempDir(), "shard.bin")
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	p = NewPager(1)
	ix.AttachPager(p)
	b, err := OpenBacking(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.BindBacking(0, NewBackingRef(b, 0, len(payload), snapcodec.Checksum(payload))); err != nil {
		t.Fatal(err)
	}
	return ix, p, path, payload
}

func TestDiskBackingLifecycle(t *testing.T) {
	_, ix := buildFixture(t)
	payload := encodeShardBytes(t, ix, 0)
	path := filepath.Join(t.TempDir(), "shard.bin")
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	p := NewPager(1)
	ix.AttachPager(p)
	sh := ix.shards[0]
	want := mustHot(t, sh).postings

	// Heap tier first: eviction without a backing ref re-encodes onto the
	// heap, and the honesty gauge charges it.
	if got := sh.backingTier(); got != TierHeap {
		t.Fatalf("unbound shard tier = %q, want %q", got, TierHeap)
	}
	if !sh.tryEvict() {
		t.Fatal("tryEvict on a hot shard reported no transition")
	}
	if st := p.Stats(); st.EncodedHeapBytes <= 0 {
		t.Fatalf("heap-evicted EncodedHeapBytes = %d, want > 0 (the lazy block)", st.EncodedHeapBytes)
	}

	// Binding drops the heap payload and flips the tier.
	b, err := OpenBacking(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.BindBacking(0, NewBackingRef(b, 0, len(payload), snapcodec.Checksum(payload))); err != nil {
		t.Fatal(err)
	}
	if sh.raw.Load() != nil {
		t.Fatal("bound shard kept its in-heap encoded payload")
	}
	if st := p.Stats(); st.EncodedHeapBytes != 0 {
		t.Fatalf("bound EncodedHeapBytes = %d, want 0", st.EncodedHeapBytes)
	}
	if got := sh.backingTier(); got != TierDisk {
		t.Fatalf("bound shard tier = %q, want %q", got, TierDisk)
	}
	if got := ix.ShardStats()[0].Backing; got != TierDisk {
		t.Fatalf("ShardStats Backing = %q, want %q", got, TierDisk)
	}

	// Page-in reads the section once and reproduces the decoded state.
	before := p.Stats()
	if got := mustHot(t, sh).postings; !reflect.DeepEqual(got, want) {
		t.Fatal("postings differ after disk page-in")
	}
	after := p.Stats()
	if after.DiskReads != before.DiskReads+1 {
		t.Fatalf("DiskReads = %d, want %d", after.DiskReads, before.DiskReads+1)
	}

	// True eviction: with a backing ref, no encoded payload survives on
	// the heap.
	if !sh.tryEvict() {
		t.Fatal("tryEvict on a bound hot shard reported no transition")
	}
	if sh.raw.Load() != nil || sh.data.Load() != nil {
		t.Fatal("true eviction left heap state behind")
	}
	if st := p.Stats(); st.EncodedHeapBytes != 0 {
		t.Fatalf("EncodedHeapBytes after true eviction = %d, want 0", st.EncodedHeapBytes)
	}

	// A save-path encode of the fully evicted shard splices the section
	// from disk, byte-identically.
	var w snapcodec.Writer
	if err := ix.EncodeShard(&w, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), payload) {
		t.Fatal("evicted re-encode differs from the stored section")
	}
}

// TestDiskBackingSingleflight: K goroutines racing for one evicted
// disk-backed shard pay exactly one page-in and one disk read — the shard
// mutex is the singleflight.
func TestDiskBackingSingleflight(t *testing.T) {
	ix, p, _, _ := bindFixture(t)
	sh := ix.shards[0]
	want := mustLookup(t, ix, "united")
	if !sh.tryEvict() {
		t.Fatal("tryEvict reported no transition")
	}
	before := p.Stats()

	const K = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, K)
	results := make([][]Posting, K)
	for i := 0; i < K; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i], errs[i] = ix.Lookup("united")
		}()
	}
	close(start)
	wg.Wait()
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Fatalf("goroutine %d got divergent postings", i)
		}
	}
	after := p.Stats()
	if got := after.PageIns - before.PageIns; got != 1 {
		t.Errorf("%d concurrent lookups paid %d page-ins, want 1", K, got)
	}
	if got := after.DiskReads - before.DiskReads; got != 1 {
		t.Errorf("%d concurrent lookups paid %d disk reads, want 1", K, got)
	}
}

// TestDiskBackingHostileStore: bytes flipped or truncated in the backing
// file AFTER load surface as checksum/read errors on page-in — never a
// panic, never a silently wrong answer — and restoring the file restores
// service.
func TestDiskBackingHostileStore(t *testing.T) {
	ix, _, path, payload := bindFixture(t)
	sh := ix.shards[0]
	want := mustLookup(t, ix, "united")

	corrupt := func(t *testing.T, mutate func([]byte) []byte) {
		t.Helper()
		if err := os.WriteFile(path, mutate(append([]byte(nil), payload...)), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Flipped byte: the read succeeds, the CRC re-verify must not.
	corrupt(t, func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b })
	if !sh.tryEvict() {
		t.Fatal("tryEvict reported no transition")
	}
	if _, err := ix.Lookup("united"); !errors.Is(err, snapcodec.ErrCorrupt) {
		t.Fatalf("flipped backstore: err = %v, want ErrCorrupt", err)
	}

	// Truncation: the positional read itself fails.
	corrupt(t, func(b []byte) []byte { return b[:len(b)/3] })
	if _, err := ix.Lookup("united"); !errors.Is(err, snapcodec.ErrCorrupt) {
		t.Fatalf("truncated backstore: err = %v, want ErrCorrupt", err)
	}

	// The shard stays cold through the failures (no half-decoded state),
	// and restoring the file restores byte-identical answers.
	if sh.data.Load() != nil {
		t.Fatal("failed page-in left decoded state behind")
	}
	corrupt(t, func(b []byte) []byte { return b })
	got, err := ix.Lookup("united")
	if err != nil {
		t.Fatalf("restored backstore: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restored backstore served different postings")
	}
}
