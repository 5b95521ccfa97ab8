package core

import (
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
)

// This file holds the slab primitives every join kernel in this package
// is built on. Kernels consume relation.BatchScanner column slabs — a
// []uint64 of codes and a []uint64 of aux words per page — and derive join
// keys with the branch-free pbicode batch kernels, so the per-record work
// in the hot loops is a few ALU ops and one open-addressing probe instead
// of a Scanner.Next call, a map lookup and a closure dispatch. The record
// Scanner remains for the merge joins and the NestedLoop oracle, which
// the equivalence tests check every slab kernel against.

// flatSlot is one open-addressing slot: the join key and the 1-based head
// of its chain in the arena (0 = empty slot).
type flatSlot struct {
	key  uint64
	head int32
}

// flatTable is the equijoin hash table: open addressing with linear
// probing over power-of-two slots, chaining duplicate keys through a flat
// arena (one slot per distinct key plus two flat slices, so in-memory
// builds over ~100k records allocate a handful of slices rather than tens
// of thousands of buckets). A probe is a splitmix64 mix plus a short
// linear scan of 16-byte slots — several times cheaper than a Go map
// lookup, which is what the probe loop of every equijoin spends its time
// on.
type flatTable struct {
	mask  uint64
	slots []flatSlot
	recs  []relation.Rec
	next  []int32 // 1-based index of the previous entry with the same key
	used  int     // occupied slots (distinct keys)
}

func newFlatTable(capacity int64) *flatTable {
	if capacity < 0 || capacity > 1<<30 {
		capacity = 0
	}
	size := 16
	for int64(size) < capacity*2 {
		size <<= 1
	}
	return &flatTable{
		mask:  uint64(size - 1),
		slots: make([]flatSlot, size),
		recs:  make([]relation.Rec, 0, capacity),
		next:  make([]int32, 0, capacity),
	}
}

// grow doubles the slot array and rehashes. Chains live in the arena and
// are untouched — only the heads move.
func (t *flatTable) grow() {
	old := t.slots
	size := len(old) * 2
	t.slots = make([]flatSlot, size)
	t.mask = uint64(size - 1)
	for _, s := range old {
		if s.head == 0 {
			continue
		}
		i := splitmix64(s.key) & t.mask
		for t.slots[i].head != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
}

// add stores r under key.
func (t *flatTable) add(key uint64, r relation.Rec) {
	if (t.used+1)*2 > len(t.slots) {
		t.grow()
	}
	t.recs = append(t.recs, r)
	t.next = append(t.next, 0)
	idx := int32(len(t.recs))
	i := splitmix64(key) & t.mask
	for {
		s := &t.slots[i]
		if s.head == 0 {
			s.key, s.head = key, idx
			t.used++
			return
		}
		if s.key == key {
			t.next[idx-1] = s.head
			s.head = idx
			return
		}
		i = (i + 1) & t.mask
	}
}

// probe returns the 1-based head of key's chain, 0 when absent. Walk the
// chain via next: for i := probe(k); i != 0; i = next[i-1] { recs[i-1] }.
func (t *flatTable) probe(key uint64) int32 {
	i := splitmix64(key) & t.mask
	for {
		s := t.slots[i]
		if s.head == 0 {
			return 0
		}
		if s.key == key {
			return s.head
		}
		i = (i + 1) & t.mask
	}
}

func (t *flatTable) len() int { return len(t.recs) }

// reset empties the table keeping its capacity (block-join chunk reuse).
func (t *flatTable) reset() {
	clear(t.slots)
	t.recs = t.recs[:0]
	t.next = t.next[:0]
	t.used = 0
}

// fMask/fBit are the constants of the branch-free F derivation at height
// h: F(c,h) = c&fMask | fBit. lowMask tests eligibility — a descendant
// participates iff its height is below h, i.e. c&lowMask != 0.
func fMask(h int) (mask, bit, lowMask uint64) {
	return ^uint64(0) << (uint(h) + 1), uint64(1) << uint(h), uint64(1)<<uint(h) - 1
}

// probeD joins one descendant page slab against a table of ancestors
// keyed at height h: each eligible code (height below h) probes with its
// branch-free F derivation, and every chained ancestor pairs with it.
func (t *flatTable) probeD(codes, aux []uint64, h int, sink Sink) error {
	mask, bit, low := fMask(h)
	for i, c := range codes {
		if c&low == 0 {
			continue // at or above height h: cannot have an ancestor there
		}
		idx := t.probe(c&mask | bit)
		if idx == 0 {
			continue
		}
		dr := relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}
		for ; idx != 0; idx = t.next[idx-1] {
			if err := sink.Emit(t.recs[idx-1], dr); err != nil {
				return err
			}
		}
	}
	return nil
}

// fBatch fills buf (grown as needed) with F(code, h) for every code of a
// page slab and returns it.
func fBatch(buf, codes []uint64, h int) []uint64 {
	if cap(buf) < len(codes) {
		buf = make([]uint64, len(codes))
	}
	buf = buf[:len(codes)]
	pbicode.FBatch(buf, codes, h)
	return buf
}
