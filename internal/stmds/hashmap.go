package stmds

import (
	"repro/internal/mem"
	"repro/internal/stm"
)

// HashMap is a fixed-bucket chained hash map over STM cells — the hash map
// microbenchmark of Figure 5.7 (10,000 elements over 256 buckets in the
// paper's configuration). Each bucket is an unsorted chain of
// [key, value, next] nodes; a per-bucket head cell anchors the chain.
type HashMap struct {
	arena   *mem.Arena
	buckets []*mem.Cell // each holds the Ref of the first chain node
	mask    uint64
}

const (
	hmKey  = 0
	hmVal  = 1
	hmNext = 2
	hmSize = 3
)

// NewHashMap creates a map with the given bucket count (rounded up to a
// power of two) and room for capacity entries.
func NewHashMap(buckets, capacity int) *HashMap {
	nb := 1
	for nb < buckets {
		nb *= 2
	}
	a := mem.NewArena(nb + (capacity+1)*hmSize)
	m := &HashMap{arena: a, mask: uint64(nb - 1)}
	base := a.Alloc(nb)
	m.buckets = make([]*mem.Cell, nb)
	for i := range m.buckets {
		m.buckets[i] = a.Cell(base + uint64(i))
	}
	return m
}

func (m *HashMap) bucket(key int64) *mem.Cell {
	h := uint64(key) * 0x9e3779b97f4a7c15
	return m.buckets[(h>>32)&m.mask]
}

// Put inserts or updates key within tx, returning true if a new entry was
// created.
func (m *HashMap) Put(tx stm.Tx, key int64, val uint64) bool {
	b := m.bucket(key)
	for r := Ref(tx.Read(b)); r != nilRef; r = Ref(readField(tx, m.arena, r, hmNext)) {
		if u2k(readField(tx, m.arena, r, hmKey)) == key {
			writeField(tx, m.arena, r, hmVal, val)
			return false
		}
	}
	n := alloc(m.arena, hmSize)
	field(m.arena, n, hmKey).Store(k2u(key))
	tx.Write(field(m.arena, n, hmVal), val)
	tx.Write(field(m.arena, n, hmNext), tx.Read(b))
	tx.Write(b, uint64(n))
	return true
}

// Get returns the value for key within tx.
func (m *HashMap) Get(tx stm.Tx, key int64) (uint64, bool) {
	b := m.bucket(key)
	for r := Ref(tx.Read(b)); r != nilRef; r = Ref(readField(tx, m.arena, r, hmNext)) {
		if u2k(readField(tx, m.arena, r, hmKey)) == key {
			return readField(tx, m.arena, r, hmVal), true
		}
	}
	return 0, false
}

// Delete removes key within tx, returning false if absent.
func (m *HashMap) Delete(tx stm.Tx, key int64) bool {
	b := m.bucket(key)
	prev := nilRef
	for r := Ref(tx.Read(b)); r != nilRef; r = Ref(readField(tx, m.arena, r, hmNext)) {
		if u2k(readField(tx, m.arena, r, hmKey)) == key {
			next := readField(tx, m.arena, r, hmNext)
			if prev == nilRef {
				tx.Write(b, next)
			} else {
				writeField(tx, m.arena, prev, hmNext, next)
			}
			return true
		}
		prev = r
	}
	return false
}

// Len counts entries non-transactionally (tests and reporting only).
func (m *HashMap) Len() int {
	n := 0
	m.Range(func(int64, uint64) { n++ })
	return n
}

// Range calls fn for each entry, non-transactionally, in bucket order
// (quiescent callers only, such as durable snapshots).
func (m *HashMap) Range(fn func(key int64, val uint64)) {
	for _, b := range m.buckets {
		for r := Ref(b.Load()); r != nilRef; r = Ref(field(m.arena, r, hmNext).Load()) {
			fn(u2k(field(m.arena, r, hmKey).Load()), field(m.arena, r, hmVal).Load())
		}
	}
}
