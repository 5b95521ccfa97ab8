package main

import (
	"fmt"
	"hash/fnv"
	"net/url"
	"sort"
	"strings"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/workload"
	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// The XMark corpus and key space shared by xmark-routed and xmark-ingest.
const (
	xmarkScale = 0.04 // per document: ~27.8k elements
	// maxChains3 caps the 3-step path keys: those of the 3-step tag chains
	// with an answer that come first in popularity order.
	maxChains3 = 600
	zipfS      = 1.0
)

// explicitAlgos are the algorithms keys name besides auto: every one
// valid on any input, nlj excluded. shcj is valid only when the ancestor
// set has a single height and is added per pair.
var explicitAlgos = []string{"mhcj", "rollup", "vpj", "inljn", "stacktree", "stackanc", "mpmgjn", "adb"}

// xmarkDocs generates n XMark documents with seeds derived from seed.
func xmarkDocs(n int, scale float64, seed int64) ([]*xmltree.Element, error) {
	var roots []*xmltree.Element
	for i := 0; i < n; i++ {
		doc, err := workload.GenerateXMark(workload.XMark(scale, seed*1000+int64(i)+1))
		if err != nil {
			return nil, err
		}
		roots = append(roots, doc.Root)
	}
	return roots, nil
}

// collect builds a collection of the documents, named xmark-<i>.xml.
func collect(roots []*xmltree.Element) (*xmltree.Collection, error) {
	coll := xmltree.NewCollection()
	for i, r := range roots {
		if err := coll.AddTree(fmt.Sprintf("xmark-%d.xml", i), r); err != nil {
			return nil, err
		}
	}
	return coll, nil
}

// census counts a forest's elements by root-to-element tag path. Path
// answers are computed from it, independently of the engine.
type census map[string]int64

const pathSep = "\x00"

// addTree adds every element under root (root's own tag path starts the
// paths).
func (c census) addTree(root *xmltree.Element) {
	var walk func(e *xmltree.Element, prefix string)
	walk = func(e *xmltree.Element, prefix string) {
		p := e.Tag
		if prefix != "" {
			p = prefix + pathSep + e.Tag
		}
		c[p]++
		for _, ch := range e.Children {
			walk(ch, p)
		}
	}
	walk(root, "")
}

// pathCount returns how many elements tagged chain[last] have proper
// ancestors matching chain[:last] in order: the answer to //c0//c1//...
func (c census) pathCount(chain []string) int64 {
	var n int64
	for p, cnt := range c {
		tags := strings.Split(p, pathSep)
		if tags[len(tags)-1] != chain[len(chain)-1] {
			continue
		}
		if isSubsequence(chain[:len(chain)-1], tags[:len(tags)-1]) {
			n += cnt
		}
	}
	return n
}

// pairCount returns the number of (a, d) element pairs with a tagged a
// properly containing d tagged d: the answer to a containment join.
func (c census) pairCount(a, d string) int64 {
	var n int64
	for p, cnt := range c {
		tags := strings.Split(p, pathSep)
		if tags[len(tags)-1] != d {
			continue
		}
		for _, t := range tags[:len(tags)-1] {
			if t == a {
				n += cnt
			}
		}
	}
	return n
}

func isSubsequence(want, in []string) bool {
	i := 0
	for _, t := range in {
		if i < len(want) && t == want[i] {
			i++
		}
	}
	return i == len(want)
}

// chains returns every distinct k-step tag chain (k = 2 or 3) that has an
// answer, sorted.
func (c census) chains(k int) [][]string {
	seen := map[string]bool{}
	for p := range c {
		tags := strings.Split(p, pathSep)
		last := tags[len(tags)-1]
		anc := tags[:len(tags)-1]
		if k == 2 {
			for _, a := range anc {
				seen[a+pathSep+last] = true
			}
			continue
		}
		for i := range anc {
			for j := i + 1; j < len(anc); j++ {
				seen[anc[i]+pathSep+anc[j]+pathSep+last] = true
			}
		}
	}
	out := make([][]string, 0, len(seen))
	for s := range seen {
		out = append(out, strings.Split(s, pathSep))
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i], "/") < strings.Join(out[j], "/")
	})
	return out
}

// key is one distinct request of the XMark key space.
type key struct {
	// path is the request URI without host, e.g. /join?anc=a&desc=b&algo=vpj.
	path string
	// anc/desc name a /join key's relations; chain a /query key's steps.
	anc, desc string
	chain     []string
	// ref is the reference answer count.
	ref int64
}

// keySpace builds the XMark key space over a stored database: every
// ordered tag pair with a non-empty join, crossed with auto and each valid
// explicit algorithm (withSHCJ allows shcj on single-height ancestor
// sets); every 2-step path along a real tag chain; and up to maxChains3
// 3-step paths. Join references are containment.Count over the stored
// codes; path references come from the census. A key's position in the
// result is its zipf rank.
func keySpace(rels map[string]*containment.Relation, cen census, withSHCJ bool) ([]key, error) {
	codes := map[string][]pbicode.Code{}
	get := func(tag string) ([]pbicode.Code, error) {
		if c, ok := codes[tag]; ok {
			return c, nil
		}
		r := rels[relPrefix+tag]
		if r == nil {
			return nil, fmt.Errorf("relation %s missing", tag)
		}
		c, err := r.Codes()
		if err != nil {
			return nil, err
		}
		codes[tag] = c
		return c, nil
	}
	var keys []key
	for _, ch := range cen.chains(2) {
		a, d := ch[0], ch[1]
		ac, err := get(a)
		if err != nil {
			return nil, err
		}
		dc, err := get(d)
		if err != nil {
			return nil, err
		}
		n, err := containment.Count(ac, dc)
		if err != nil {
			return nil, err
		}
		if c := cen.pairCount(a, d); n != c {
			return nil, fmt.Errorf("join %s//%s: containment.Count %d, census %d", a, d, n, c)
		}
		algos := append([]string{"auto"}, explicitAlgos...)
		if withSHCJ && singleHeight(ac) {
			algos = append(algos, "shcj")
		}
		for _, alg := range algos {
			q := url.Values{"anc": {a}, "desc": {d}}
			if alg != "auto" {
				q.Set("algo", alg)
			}
			keys = append(keys, key{path: "/join?" + q.Encode(), anc: a, desc: d, ref: n})
		}
		keys = append(keys, pathKey(ch, cen.pathCount(ch)))
	}
	chains3 := cen.chains(3)
	sort.Slice(chains3, func(i, j int) bool {
		return popularity(strings.Join(chains3[i], "//")) < popularity(strings.Join(chains3[j], "//"))
	})
	if len(chains3) > maxChains3 {
		chains3 = chains3[:maxChains3]
	}
	for _, ch := range chains3 {
		keys = append(keys, pathKey(ch, cen.pathCount(ch)))
	}
	// Popularity rank is a fixed function of the request, not of the
	// seed: every seed's hottest keys are the same queries, so runs differ
	// in data and request draws, not in which joins dominate the traffic.
	sort.Slice(keys, func(i, j int) bool { return popularity(keys[i].path) < popularity(keys[j].path) })
	return keys, nil
}

func pathKey(chain []string, ref int64) key {
	return key{path: "/query?" + url.Values{"path": {"//" + strings.Join(chain, "//")}}.Encode(), chain: chain, ref: ref}
}

// singleHeight reports whether every code has the same PBiTree height.
func singleHeight(codes []pbicode.Code) bool {
	for _, c := range codes {
		if c.Height() != codes[0].Height() {
			return false
		}
	}
	return true
}

// popularity is a key's fixed zipf rank order: a hash of its request.
func popularity(path string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return mix64(h.Sum64())
}

// keyStream draws the zipfian request sequence: the i-th request is
// keys[at(i)], the same for a given seed however callers interleave.
type keyStream struct {
	z     *zipf
	drawn []int
}

func newKeyStream(n int, seed int64) *keyStream { return &keyStream{z: newZipf(n, zipfS, seed)} }

// at returns the key index of request seq. Not safe for concurrent use.
func (s *keyStream) at(seq int) int {
	for len(s.drawn) <= seq {
		s.drawn = append(s.drawn, s.z.next())
	}
	return s.drawn[seq]
}
