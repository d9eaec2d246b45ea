package mvotb

// Set is a multi-version boosted set: updater operations follow OTB
// semantics (read-your-writes, deferred publication), snapshot operations
// resolve against the reader's pinned timestamp.
type Set struct{ t *table }

// NewSet creates a set backed by at least nbuckets hash buckets (rounded up
// to a power of two).
func (rt *Runtime) NewSet(nbuckets int) *Set {
	return &Set{t: rt.newTable(nbuckets)}
}

// Add inserts key within tx, returning false if already present.
func (s *Set) Add(tx *Tx, key int64) bool {
	if w := tx.findWrite(s.t, key); w != nil {
		if w.present {
			return false
		}
		w.present, w.val = true, 0
		return true
	}
	if _, present := s.t.read(tx, key); present {
		return false
	}
	tx.addWrite(s.t, key, true, 0)
	return true
}

// Remove deletes key within tx, returning false if absent.
func (s *Set) Remove(tx *Tx, key int64) bool {
	if w := tx.findWrite(s.t, key); w != nil {
		if !w.present {
			return false
		}
		w.present = false
		return true
	}
	if _, present := s.t.read(tx, key); !present {
		return false
	}
	tx.addWrite(s.t, key, false, 0)
	return true
}

// Contains reports within tx whether key is present.
func (s *Set) Contains(tx *Tx, key int64) bool {
	if w := tx.findWrite(s.t, key); w != nil {
		return w.present
	}
	_, present := s.t.read(tx, key)
	return present
}

// SnapContains reports whether key is present at the reader's snapshot.
func (s *Set) SnapContains(x *STx, key int64) bool {
	_, ok := s.t.snapRead(x, key)
	return ok
}

// Len counts the currently-present keys (not linearizable; tests and
// reporting).
func (s *Set) Len() int {
	n := 0
	s.t.each(func(int64, uint64) { n++ })
	return n
}

// Keys returns the currently-present keys in table order (not
// linearizable; quiescent callers such as durable snapshots).
func (s *Set) Keys() (keys []int64) {
	s.t.each(func(k int64, _ uint64) { keys = append(keys, k) })
	return keys
}

// Map is a multi-version boosted map over the same version-chained core.
type Map struct{ t *table }

// NewMap creates a map backed by at least nbuckets hash buckets.
func (rt *Runtime) NewMap(nbuckets int) *Map {
	return &Map{t: rt.newTable(nbuckets)}
}

// Put inserts or updates key within tx, returning true if it inserted
// (key was absent).
func (m *Map) Put(tx *Tx, key int64, val uint64) bool {
	if w := tx.findWrite(m.t, key); w != nil {
		inserted := !w.present
		w.present, w.val = true, val
		return inserted
	}
	_, present := m.t.read(tx, key)
	tx.addWrite(m.t, key, true, val)
	return !present
}

// Get returns the value bound to key within tx.
func (m *Map) Get(tx *Tx, key int64) (uint64, bool) {
	if w := tx.findWrite(m.t, key); w != nil {
		if !w.present {
			return 0, false
		}
		return w.val, true
	}
	return m.t.read(tx, key)
}

// Delete removes key within tx, returning false if absent.
func (m *Map) Delete(tx *Tx, key int64) bool {
	if w := tx.findWrite(m.t, key); w != nil {
		if !w.present {
			return false
		}
		w.present, w.val = false, 0
		return true
	}
	if _, present := m.t.read(tx, key); !present {
		return false
	}
	tx.addWrite(m.t, key, false, 0)
	return true
}

// ContainsKey reports within tx whether key is bound.
func (m *Map) ContainsKey(tx *Tx, key int64) bool {
	_, ok := m.Get(tx, key)
	return ok
}

// SnapGet returns the value bound to key at the reader's snapshot.
func (m *Map) SnapGet(x *STx, key int64) (uint64, bool) {
	return m.t.snapRead(x, key)
}

// SnapContains reports whether key is bound at the reader's snapshot.
func (m *Map) SnapContains(x *STx, key int64) bool {
	_, ok := m.t.snapRead(x, key)
	return ok
}

// Range calls fn for each currently-bound key and its newest value, in
// table order (not linearizable; quiescent callers such as durable
// snapshots).
func (m *Map) Range(fn func(key int64, val uint64)) { m.t.each(fn) }
