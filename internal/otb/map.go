package otb

import (
	"math"
	"math/rand/v2"
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/spin"
)

// mnode is an OTB map node: a skip-list tower with a mutable value slot.
// Values are atomic so lock-free readers and committing writers are
// race-free; value consistency is guaranteed by value-based semantic
// validation, as NOrec does for memory words.
type mnode struct {
	id          uint64
	key         int64
	val         atomic.Uint64
	next        [maxLevel]atomic.Pointer[mnode]
	topLevel    int
	marked      atomic.Bool
	fullyLinked atomic.Bool
	lock        spin.VersionedLock
}

func newMNode(key int64, topLevel int) *mnode {
	return &mnode{id: nodeSeq.Add(1), key: key, topLevel: topLevel}
}

// sortMNodesByID insertion-sorts nodes ascending by allocation id (the
// global lock order), allocation-free on the commit path.
func sortMNodesByID(nodes []*mnode) {
	for i := 1; i < len(nodes); i++ {
		n := nodes[i]
		j := i - 1
		for j >= 0 && nodes[j].id > n.id {
			nodes[j+1] = nodes[j]
			j--
		}
		nodes[j+1] = n
	}
}

// sortMapWritesByKeyDesc insertion-sorts write entries descending by key
// (publication order), allocation-free.
func sortMapWritesByKeyDesc(ws []mapWrite) {
	for i := 1; i < len(ws); i++ {
		w := ws[i]
		j := i - 1
		for j >= 0 && ws[j].key < w.key {
			ws[j+1] = ws[j]
			j--
		}
		ws[j+1] = w
	}
}

// Map is an optimistically boosted ordered map — one of the data structures
// the paper's Chapter 7 proposes as future work ("more OTB data structures,
// such as maps"). It extends the OTB skip-list set design with a value slot
// per node:
//
//   - Get records a value-based semantic read (key present with this value,
//     or key absent between pred and curr);
//   - Put of an absent key defers an insert; Put of a present key defers a
//     value update, which only locks the node itself at commit;
//   - local write entries are read through by later operations in the same
//     transaction, and a Put/Delete pair on a fresh key eliminates.
type Map struct {
	head *mnode
}

// NewMap creates an empty map. Keys exclude the int64 sentinels.
func NewMap() *Map {
	tail := newMNode(math.MaxInt64, maxLevel-1)
	tail.fullyLinked.Store(true)
	head := newMNode(math.MinInt64, maxLevel-1)
	for i := range head.next {
		head.next[i].Store(tail)
	}
	head.fullyLinked.Store(true)
	return &Map{head: head}
}

// mapReadKind selects the validation rule for a map read entry.
type mapReadKind int8

const (
	mapReadValue  mapReadKind = iota // key present: node live, value unchanged
	mapReadAbsent                    // key absent: bottom-level adjacency
	mapReadFull                      // successful insert/delete: all levels
)

// mapRead is a semantic read entry.
type mapRead struct {
	kind     mapReadKind
	curr     *mnode
	val      uint64 // observed value for mapReadValue entries
	topLevel int
	preds    [maxLevel]*mnode
	succs    [maxLevel]*mnode
}

// mapWriteKind identifies the deferred operation of a write entry.
type mapWriteKind int8

const (
	mapInsert mapWriteKind = iota
	mapUpdate
	mapDelete
)

// mapWrite is a semantic write (redo) entry.
type mapWrite struct {
	kind     mapWriteKind
	key      int64
	val      uint64
	topLevel int
	victim   *mnode // update/delete target
	preds    [maxLevel]*mnode
}

// mapState is the per-transaction state for one Map.
type mapState struct {
	reads    []mapRead
	writes   []mapWrite
	locked   []*mnode
	lockSnap []uint64
	toLock   []*mnode // scratch: deduplicated lock targets during PreCommit
}

// reset recycles the state for a new transaction.
func (st *mapState) reset() {
	st.reads = st.reads[:0]
	st.writes = st.writes[:0]
	st.locked = st.locked[:0]
	st.lockSnap = st.lockSnap[:0]
	st.toLock = st.toLock[:0]
}

// addToLock appends n to the PreCommit lock-target scratch unless present.
func (st *mapState) addToLock(n *mnode) {
	for _, o := range st.toLock {
		if o == n {
			return
		}
	}
	st.toLock = append(st.toLock, n)
}

func (m *Map) state(tx *Tx) *mapState {
	return tx.Attach(m, func() any { return &mapState{} }).(*mapState)
}

func (m *Map) peekState(tx *Tx) *mapState {
	if st, ok := tx.state[m]; ok {
		return st.(*mapState)
	}
	return nil
}

// find fills preds/succs and returns the highest level where key matched.
func (m *Map) find(key int64, preds, succs *[maxLevel]*mnode) int {
	found := -1
	pred := m.head
	for level := maxLevel - 1; level >= 0; level-- {
		curr := pred.next[level].Load()
		for curr.key < key {
			pred = curr
			curr = pred.next[level].Load()
		}
		if found == -1 && curr.key == key {
			found = level
		}
		preds[level] = pred
		succs[level] = curr
	}
	return found
}

// locate traverses, waits out half-linked nodes, and post-validates.
func (m *Map) locate(tx *Tx, key int64) (found int, preds, succs [maxLevel]*mnode) {
	found = m.find(key, &preds, &succs)
	if found != -1 {
		var b spin.Backoff
		for !succs[found].fullyLinked.Load() {
			b.Wait()
		}
	}
	tx.PostValidate()
	return found, preds, succs
}

func (st *mapState) findWrite(key int64) int {
	for i := range st.writes {
		if st.writes[i].key == key {
			return i
		}
	}
	return -1
}

func (st *mapState) deleteWrite(i int) {
	last := len(st.writes) - 1
	st.writes[i] = st.writes[last]
	st.writes = st.writes[:last]
}

// Get returns the value stored for key within tx.
func (m *Map) Get(tx *Tx, key int64) (uint64, bool) {
	checkKey(key)
	tx.tr.Op(traceKey(key))
	st := m.state(tx)
	if i := st.findWrite(key); i >= 0 {
		w := &st.writes[i]
		if w.kind == mapDelete {
			return 0, false
		}
		return w.val, true
	}
	found, preds, succs := m.locate(tx, key)
	if found == -1 || succs[found].marked.Load() {
		st.reads = append(st.reads, mapRead{kind: mapReadAbsent, preds: preds, succs: succs})
		return 0, false
	}
	curr := succs[found]
	v := curr.val.Load()
	st.reads = append(st.reads, mapRead{kind: mapReadValue, curr: curr, val: v})
	return v, true
}

// ContainsKey reports within tx whether key is mapped.
func (m *Map) ContainsKey(tx *Tx, key int64) bool {
	_, ok := m.Get(tx, key)
	return ok
}

// Put maps key to val within tx, returning true if the key was absent
// (inserted) and false if an existing mapping was updated.
func (m *Map) Put(tx *Tx, key int64, val uint64) bool {
	checkKey(key)
	tx.tr.Op(traceKey(key))
	st := m.state(tx)
	if i := st.findWrite(key); i >= 0 {
		w := &st.writes[i]
		if w.kind == mapDelete {
			// Delete then Put on a live node: turn into an update.
			st.writes[i] = mapWrite{kind: mapUpdate, key: key, val: val, victim: w.victim}
			return true
		}
		w.val = val
		return false
	}
	found, preds, succs := m.locate(tx, key)
	if found != -1 && !succs[found].marked.Load() {
		curr := succs[found]
		st.reads = append(st.reads, mapRead{kind: mapReadValue, curr: curr, val: curr.val.Load()})
		st.writes = append(st.writes, mapWrite{kind: mapUpdate, key: key, val: val, victim: curr})
		return false
	}
	top := randomTowerM()
	st.reads = append(st.reads, mapRead{kind: mapReadFull, topLevel: top, preds: preds, succs: succs})
	st.writes = append(st.writes, mapWrite{kind: mapInsert, key: key, val: val, topLevel: top, preds: preds})
	return true
}

// Delete unmaps key within tx, returning false if absent.
func (m *Map) Delete(tx *Tx, key int64) bool {
	checkKey(key)
	tx.tr.Op(traceKey(key))
	st := m.state(tx)
	if i := st.findWrite(key); i >= 0 {
		w := st.writes[i]
		switch w.kind {
		case mapDelete:
			return false
		case mapInsert:
			st.deleteWrite(i) // eliminate the pending insert
			return true
		default:
			// Pending update of a live node: re-locate (validated) and turn
			// the entry into a delete with fresh, commit-validated preds.
			found, preds, succs := m.locate(tx, key)
			if found == -1 || succs[found] != w.victim || succs[found].marked.Load() {
				tx.tr.NoteKey(traceKey(key))
				abort.Retry(abort.Conflict)
			}
			st.reads = append(st.reads, mapRead{
				kind: mapReadFull, curr: w.victim, topLevel: w.victim.topLevel,
				preds: preds, succs: succs,
			})
			st.writes[i] = mapWrite{
				kind: mapDelete, key: key, victim: w.victim,
				topLevel: w.victim.topLevel, preds: preds,
			}
			return true
		}
	}
	found, preds, succs := m.locate(tx, key)
	if found == -1 || succs[found].marked.Load() {
		st.reads = append(st.reads, mapRead{kind: mapReadAbsent, preds: preds, succs: succs})
		return false
	}
	curr := succs[found]
	st.reads = append(st.reads, mapRead{
		kind: mapReadFull, curr: curr, topLevel: curr.topLevel, preds: preds, succs: succs,
	})
	st.writes = append(st.writes, mapWrite{
		kind: mapDelete, key: key, victim: curr, topLevel: curr.topLevel, preds: preds,
	})
	return true
}

// randomTowerM draws a tower height with geometric distribution p=1/2.
func randomTowerM() int {
	lvl := 0
	for lvl < maxLevel-1 && rand.Uint64()&1 == 1 {
		lvl++
	}
	return lvl
}

func (st *mapState) owns(n *mnode) bool {
	for _, l := range st.locked {
		if l == n {
			return true
		}
	}
	return false
}

// involved appends the nodes whose locks guard entry e.
func (e *mapRead) involved(buf []*mnode) []*mnode {
	switch e.kind {
	case mapReadValue:
		return append(buf, e.curr)
	case mapReadAbsent:
		return append(buf, e.preds[0], e.succs[0])
	default:
		for l := 0; l <= e.topLevel; l++ {
			buf = append(buf, e.preds[l], e.succs[l])
		}
		return buf
	}
}

// check re-evaluates the entry's semantic condition.
func (e *mapRead) check() bool {
	switch e.kind {
	case mapReadValue:
		return !e.curr.marked.Load() && e.curr.val.Load() == e.val
	case mapReadAbsent:
		return !e.preds[0].marked.Load() && !e.succs[0].marked.Load() &&
			e.preds[0].next[0].Load() == e.succs[0]
	default:
		for l := 0; l <= e.topLevel; l++ {
			if e.preds[l].marked.Load() || e.succs[l].marked.Load() ||
				e.preds[l].next[l].Load() != e.succs[l] {
				return false
			}
		}
		return true
	}
}

// ValidateWithLocks implements the three-phase validation of Algorithm 2.
func (m *Map) ValidateWithLocks(tx *Tx) bool {
	st := m.peekState(tx)
	if st == nil || len(st.reads) == 0 {
		return true
	}
	var scratch [2 * maxLevel]*mnode
	st.lockSnap = st.lockSnap[:0]
	for i := range st.reads {
		for _, n := range st.reads[i].involved(scratch[:0]) {
			if st.owns(n) {
				st.lockSnap = append(st.lockSnap, ownedVersion)
				continue
			}
			v := n.lock.Sample()
			if spin.IsLocked(v) {
				tx.tr.ValidateFail(traceKey(n.key))
				return false
			}
			st.lockSnap = append(st.lockSnap, v)
		}
	}
	if !m.ValidateWithoutLocks(tx) {
		return false
	}
	k := 0
	for i := range st.reads {
		for _, n := range st.reads[i].involved(scratch[:0]) {
			v := st.lockSnap[k]
			k++
			if v == ownedVersion {
				continue
			}
			if n.lock.Sample() != v {
				tx.tr.ValidateFail(traceKey(n.key))
				return false
			}
		}
	}
	return true
}

// ValidateWithoutLocks re-checks only the semantic conditions.
func (m *Map) ValidateWithoutLocks(tx *Tx) bool {
	st := m.peekState(tx)
	if st == nil {
		return true
	}
	for i := range st.reads {
		if !st.reads[i].check() {
			tx.tr.ValidateFail(mapReadTraceKey(&st.reads[i]))
			return false
		}
	}
	return true
}

// mapReadTraceKey names the node a failing map read entry is anchored on.
func mapReadTraceKey(e *mapRead) uint64 {
	if e.curr != nil {
		return traceKey(e.curr.key)
	}
	return traceKey(e.succs[0].key)
}

// Dirty reports whether the transaction has pending writes on this map.
func (m *Map) Dirty(tx *Tx) bool {
	st := m.peekState(tx)
	return st != nil && len(st.writes) > 0
}

// PreCommit locks, in allocation order, the predecessor towers of inserts
// and deletes, the victims of deletes, and the target nodes of updates.
func (m *Map) PreCommit(tx *Tx) {
	st := m.peekState(tx)
	if st == nil || len(st.writes) == 0 {
		return
	}
	st.toLock = st.toLock[:0]
	for i := range st.writes {
		w := &st.writes[i]
		switch w.kind {
		case mapInsert:
			for l := 0; l <= w.topLevel; l++ {
				st.addToLock(w.preds[l])
			}
		case mapUpdate:
			st.addToLock(w.victim)
		default:
			for l := 0; l <= w.topLevel; l++ {
				st.addToLock(w.preds[l])
			}
			st.addToLock(w.victim)
		}
	}
	sortMNodesByID(st.toLock)
	for _, n := range st.toLock {
		if _, ok := n.lock.TryLock(); !ok {
			tx.Counters().IncCAS()
			tx.tr.LockBusy(traceKey(n.key))
			abort.Retry(abort.LockBusy)
		}
		tx.tr.Lock(traceKey(n.key))
		st.locked = append(st.locked, n)
	}
}

// OnCommit publishes the write set in descending key order, re-traversing
// per level from the saved predecessors (inserts/deletes) and storing
// values in place (updates).
func (m *Map) OnCommit(tx *Tx) {
	st := m.peekState(tx)
	if st == nil || len(st.writes) == 0 {
		return
	}
	sortMapWritesByKeyDesc(st.writes)
	for i := range st.writes {
		w := &st.writes[i]
		switch w.kind {
		case mapUpdate:
			w.victim.val.Store(w.val)
		case mapInsert:
			n := newMNode(w.key, w.topLevel)
			n.val.Store(w.val)
			n.lock.TryLock()
			for l := 0; l <= w.topLevel; l++ {
				pred, succ := retraverseM(w.preds[l], w.key, l)
				n.next[l].Store(succ)
				pred.next[l].Store(n)
			}
			n.fullyLinked.Store(true)
			st.locked = append(st.locked, n)
		default: // mapDelete
			w.victim.marked.Store(true)
			for l := w.topLevel; l >= 0; l-- {
				pred, _ := retraverseM(w.preds[l], w.key, l)
				pred.next[l].Store(w.victim.next[l].Load())
			}
		}
	}
}

// retraverseM advances from the saved predecessor to the current (pred,
// succ) pair at the given level.
func retraverseM(pred *mnode, key int64, level int) (*mnode, *mnode) {
	curr := pred.next[level].Load()
	for curr.key < key {
		pred = curr
		curr = pred.next[level].Load()
	}
	return pred, curr
}

// PostCommit releases all semantic locks, bumping versions.
func (m *Map) PostCommit(tx *Tx) {
	st := m.peekState(tx)
	if st == nil {
		return
	}
	for _, n := range st.locked {
		n.lock.Unlock()
		tx.tr.Unlock(traceKey(n.key))
	}
	st.locked = st.locked[:0]
}

// OnAbort releases locks without publishing, restoring versions.
func (m *Map) OnAbort(tx *Tx) {
	st := m.peekState(tx)
	if st == nil {
		return
	}
	for _, n := range st.locked {
		n.lock.UnlockUnchanged()
	}
	st.locked = st.locked[:0]
}

// Len counts live entries (not linearizable; tests and reporting).
func (m *Map) Len() int {
	n := 0
	for curr := m.head.next[0].Load(); curr.key != math.MaxInt64; curr = curr.next[0].Load() {
		if curr.fullyLinked.Load() && !curr.marked.Load() {
			n++
		}
	}
	return n
}

// Range calls fn for each live key/value pair in ascending key order (not
// linearizable; quiescent callers such as durable snapshots).
func (m *Map) Range(fn func(key int64, val uint64)) {
	for curr := m.head.next[0].Load(); curr.key != math.MaxInt64; curr = curr.next[0].Load() {
		if curr.fullyLinked.Load() && !curr.marked.Load() {
			fn(curr.key, curr.val.Load())
		}
	}
}

var _ Datastructure = (*Map)(nil)
