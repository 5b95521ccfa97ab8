package qserv

import (
	"fmt"
	"testing"

	"github.com/pbitree/pbitree/internal/servekit"
)

// cacheServer returns a server reduced to its result cache: lookup and
// store, the path every /join and /query takes through the cache.
func cacheServer(capacity int) *Server {
	return &Server{cache: servekit.NewCache(capacity)}
}

func TestCacheLRUEviction(t *testing.T) {
	srv := cacheServer(2)
	srv.store("a", []byte("A"))
	srv.store("b", []byte("B"))
	if _, ok := srv.lookup("a"); !ok { // a is now most recent
		t.Fatal("a missing")
	}
	srv.store("c", []byte("C")) // evicts b
	if _, ok := srv.lookup("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := srv.lookup("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := srv.lookup("c"); !ok {
		t.Fatal("c missing")
	}
	s := srv.cache.Snapshot()
	if s.Entries != 2 || s.Evicted != 1 {
		t.Fatalf("snapshot = %+v, want 2 entries / 1 evicted", s)
	}
	// hits: a, a, c = 3; misses: b before insert? get(b) after evict = 1.
	if s.Hits != 3 || s.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", s.Hits, s.Misses)
	}
	if s.HitRate < 0.74 || s.HitRate > 0.76 {
		t.Fatalf("hit rate = %v, want 0.75", s.HitRate)
	}
}

// TestCacheReplace locks in the byte-replay contract: once a key is
// stored, a later store (a concurrent miss that executed too) leaves the
// first payload in place and hands it back as the reply, so every reply
// for the key carries the bytes the first execution produced.
func TestCacheReplace(t *testing.T) {
	srv := cacheServer(4)
	if got := srv.store("k", []byte("v1")); string(got) != "v1" {
		t.Fatalf("first store = %q, want v1", got)
	}
	if got := srv.store("k", []byte("v2")); string(got) != "v1" {
		t.Fatalf("second store = %q, want the stored v1", got)
	}
	got, ok := srv.lookup("k")
	if !ok || string(got) != "v1" {
		t.Fatalf("lookup = %q/%v, want v1", got, ok)
	}
	if s := srv.cache.Snapshot(); s.Entries != 1 {
		t.Fatalf("entries = %d, want 1", s.Entries)
	}
}

func TestCacheConcurrent(t *testing.T) {
	srv := cacheServer(32)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%64)
				if _, ok := srv.lookup(key); !ok {
					srv.store(key, []byte(key))
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	s := srv.cache.Snapshot()
	if s.Entries > 32 {
		t.Fatalf("cache over capacity: %d", s.Entries)
	}
}
