package router

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"
)

// TestConcurrentColdMisses is the router's side of the byte-replay
// contract: a burst of requests for one cold key misses the merged-result
// cache concurrently, each fans out and merges its own answer (with its
// own wall_us), and still every reply must carry one body — the bytes the
// first stored execution produced. Nodes run uncached so every fan-out
// really executes.
func TestConcurrentColdMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nShards = 2
	db := buildRouterDB(t, rng, nShards)
	_, ts := newTestRouter(t, Config{Topology: startShardNodes(t, db, nShards), CacheEntries: 64})

	var urls []string
	for _, algo := range []string{"auto", "rollup", "stacktree", "mhcj"} {
		for _, q := range [][2]string{{"section", "figure"}, {"section", "para"}, {"para", "figure"}} {
			urls = append(urls, fmt.Sprintf("%s/join?anc=%s&desc=%s&algo=%s", ts.URL, q[0], q[1], algo))
		}
	}
	urls = append(urls, ts.URL+"/query?path=//section//para//figure")

	const burst = 8
	client := &http.Client{}
	for _, url := range urls {
		bodies := make([]string, burst)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < burst; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				resp, err := client.Get(url)
				if err != nil {
					t.Errorf("GET %s: %v", url, err)
					return
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d, err %v: %s", url, resp.StatusCode, err, body)
				}
				bodies[g] = string(body)
			}(g)
		}
		close(start)
		wg.Wait()
		distinct := map[string]bool{}
		for _, b := range bodies {
			distinct[b] = true
		}
		if len(distinct) != 1 {
			t.Errorf("%s: %d concurrent cold misses gave %d distinct bodies, want 1", url, burst, len(distinct))
		}
	}
}
