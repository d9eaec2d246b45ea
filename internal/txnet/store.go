package txnet

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/mvotb"
	"repro/internal/otb"
	"repro/internal/stm"
	"repro/internal/stmds"
)

// ErrBadOp marks a structurally invalid request: an op code a structure
// does not support, or a structure index outside the registry. The server
// answers StatusBadRequest without executing anything.
var ErrBadOp = errors.New("txnet: invalid operation")

// Store executes one transaction — a batch of ops applied atomically —
// against a registry of structures addressed by index. Exec must be
// all-or-nothing: either every op applied and res holds one result per op,
// or nothing applied and an error classifies why (ctx errors propagate
// unchanged; invalid requests wrap ErrBadOp and are detected before any
// transactional work). Implementations are shared by every connection and
// must be safe for concurrent use.
//
// DumpOps emits one op per live entry across every structure, in registry
// order — replaying them against an empty store of the same shape rebuilds
// the current state, which is what a durable snapshot records. The caller
// must be quiescent (no concurrent Exec); the durable commit path
// guarantees this by snapshotting under its lock.
type Store interface {
	Exec(ctx context.Context, ops []Op, res []OpResult) error
	DumpOps(emit func(Op))
}

// DurableStore is an alias of Store, kept for callers that name it.
type DurableStore = Store

// kind is the abstract type of one registered structure.
type kind uint8

const (
	kindSet kind = iota
	kindMap
	kindPQ
)

// kindOps is the one table of op validity: bit c is set when a structure
// of that kind accepts OpCode c. Codes past the mask width shift to 0, so
// unknown codes fail the same test.
var kindOps = [...]uint32{
	kindSet: 1<<OpAdd | 1<<OpRemove | 1<<OpContains,
	kindMap: 1<<OpPut | 1<<OpGet | 1<<OpDelete | 1<<OpContains,
	kindPQ:  1<<OpAdd | 1<<OpMin | 1<<OpRemoveMin,
}

// txSet, txMap and txPQ are what each abstract type offers under a runtime
// whose transactions have type T. Keys and Range are quiescent iterators,
// used only to dump.
type txSet[T any] interface {
	Add(tx T, key int64) bool
	Remove(tx T, key int64) bool
	Contains(tx T, key int64) bool
	Keys() []int64
}

type txMap[T any] interface {
	Put(tx T, key int64, val uint64) bool
	Get(tx T, key int64) (uint64, bool)
	Delete(tx T, key int64) bool
	Range(fn func(key int64, val uint64))
}

type txPQ[T any] interface {
	Add(tx T, key int64) bool
	Min(tx T) (int64, bool)
	RemoveMin(tx T) (int64, bool)
	Keys() []int64
}

// structure is one registry slot: its kind and the field that kind uses.
type structure[T any] struct {
	kind kind
	set  txSet[T]
	m    txMap[T]
	pq   txPQ[T]
}

// registry is the runtime-independent half of every store: the structures
// by wire index, op validation, apply and dump. Each store adds only its
// runtime's transaction runner.
type registry[T any] []structure[T]

// check rejects malformed batches before any transactional work — the
// structure index inside the registry and the code accepted by that
// structure's kind — so a failing batch provably applied nothing.
func (r registry[T]) check(ops []Op) error {
	for i, op := range ops {
		if int(op.Struct) >= len(r) {
			return fmt.Errorf("%w: op %d addresses structure %d of %d", ErrBadOp, i, op.Struct, len(r))
		}
		if kindOps[r[op.Struct].kind]>>op.Code&1 == 0 {
			return fmt.Errorf("%w: op %d: %s on structure %d", ErrBadOp, i, op.Code, op.Struct)
		}
	}
	return nil
}

// apply runs a checked batch inside tx, one result per op.
func (r registry[T]) apply(tx T, ops []Op, res []OpResult) {
	for i, op := range ops {
		s := &r[op.Struct]
		switch s.kind {
		case kindSet:
			switch op.Code {
			case OpAdd:
				res[i] = OpResult{OK: s.set.Add(tx, op.Key)}
			case OpRemove:
				res[i] = OpResult{OK: s.set.Remove(tx, op.Key)}
			default:
				res[i] = OpResult{OK: s.set.Contains(tx, op.Key)}
			}
		case kindMap:
			switch op.Code {
			case OpPut:
				res[i] = OpResult{OK: s.m.Put(tx, op.Key, op.Val)}
			case OpGet:
				v, ok := s.m.Get(tx, op.Key)
				res[i] = OpResult{Out: v, OK: ok}
			case OpDelete:
				res[i] = OpResult{OK: s.m.Delete(tx, op.Key)}
			default:
				_, ok := s.m.Get(tx, op.Key)
				res[i] = OpResult{OK: ok}
			}
		default:
			switch op.Code {
			case OpAdd:
				res[i] = OpResult{OK: s.pq.Add(tx, op.Key)}
			case OpMin:
				k, ok := s.pq.Min(tx)
				res[i] = OpResult{Out: uint64(k), OK: ok}
			default:
				k, ok := s.pq.RemoveMin(tx)
				res[i] = OpResult{Out: uint64(k), OK: ok}
			}
		}
	}
}

// DumpOps implements Store: sets and queues dump as Adds, maps as Puts.
func (r registry[T]) DumpOps(emit func(Op)) {
	for i, s := range r {
		st := uint32(i)
		var keys []int64
		switch s.kind {
		case kindSet:
			keys = s.set.Keys()
		case kindMap:
			s.m.Range(func(k int64, v uint64) { emit(Op{Code: OpPut, Struct: st, Key: k, Val: v}) })
		default:
			keys = s.pq.Keys()
		}
		for _, k := range keys {
			emit(Op{Code: OpAdd, Struct: st, Key: k})
		}
	}
}

// OTBStore serves OTB structures — a ListSet (index 0), a Map (index 1)
// and a SkipPQ (index 2), the three abstract types the paper boosts behind
// one transactional API (the Proust design space) — all updated in one
// otb.Atomic transaction per request.
type OTBStore struct{ registry[*otb.Tx] }

// NewOTBStore builds an empty OTB store.
func NewOTBStore() *OTBStore {
	return &OTBStore{registry[*otb.Tx]{
		{kind: kindSet, set: otb.NewListSet()},
		{kind: kindMap, m: otb.NewMap()},
		{kind: kindPQ, pq: otb.NewSkipPQ()},
	}}
}

// Exec implements Store: all ops run in one OTB transaction, so the batch
// commits or aborts as a unit.
func (s *OTBStore) Exec(ctx context.Context, ops []Op, res []OpResult) error {
	if err := s.check(ops); err != nil {
		return err
	}
	return otb.AtomicCtx(ctx, nil, func(tx *otb.Tx) { s.apply(tx, ops, res) })
}

// MVOTBStore serves the multi-version runtime's structures: a set (index 0)
// and a map (index 1). Batches that only read — every op is a Contains or
// Get — execute as one never-abort snapshot transaction; anything else runs
// the updater path. A read-heavy wire workload therefore gets the
// multi-version payoff (no validation, no retries) without any protocol
// change: the client cannot tell which path served it.
type MVOTBStore struct {
	registry[*mvotb.Tx]
	rt  *mvotb.Runtime
	set *mvotb.Set
	m   *mvotb.Map
}

// NewMVOTBStore builds a store over a fresh runtime.
func NewMVOTBStore() *MVOTBStore {
	rt := mvotb.New(mvotb.Options{})
	s := &MVOTBStore{rt: rt, set: rt.NewSet(256), m: rt.NewMap(256)}
	s.registry = registry[*mvotb.Tx]{{kind: kindSet, set: s.set}, {kind: kindMap, m: s.m}}
	return s
}

// Stop halts the runtime's background version GC.
func (s *MVOTBStore) Stop() { s.rt.Stop() }

// Exec implements Store.
func (s *MVOTBStore) Exec(ctx context.Context, ops []Op, res []OpResult) error {
	if err := s.check(ops); err != nil {
		return err
	}
	if mutating(ops) {
		return s.rt.AtomicCtx(ctx, func(tx *mvotb.Tx) { s.apply(tx, ops, res) })
	}
	// With no queue registered, a checked read-only batch holds only
	// Contains and Get ops.
	return s.rt.ReadOnlyCtx(ctx, func(x *mvotb.STx) {
		for i, op := range ops {
			switch {
			case op.Struct == 0:
				res[i] = OpResult{OK: s.set.SnapContains(x, op.Key)}
			case op.Code == OpGet:
				v, ok := s.m.SnapGet(x, op.Key)
				res[i] = OpResult{Out: v, OK: ok}
			default:
				res[i] = OpResult{OK: s.m.SnapContains(x, op.Key)}
			}
		}
	})
}

// STMStore serves word-based STM structures: a set (index 0) and a map
// (index 1), both stmds.HashMap chains over the given algorithm's cells,
// executed with the algorithm's AtomicCtx. It demonstrates that the
// network layer is runtime-agnostic — any stm.AlgorithmCtx hosts the same
// wire API. Capacity is fixed at construction (the arenas do not grow).
type STMStore struct {
	registry[stm.Tx]
	alg stm.AlgorithmCtx
}

// NewSTMStore builds an STM-backed store over alg with room for capacity
// inserts per structure.
func NewSTMStore(alg stm.AlgorithmCtx, capacity int) *STMStore {
	return &STMStore{alg: alg, registry: registry[stm.Tx]{
		{kind: kindSet, set: stmSet{stmds.NewHashMap(256, capacity)}},
		{kind: kindMap, m: stmds.NewHashMap(256, capacity)},
	}}
}

// Exec implements Store.
func (s *STMStore) Exec(ctx context.Context, ops []Op, res []OpResult) error {
	if err := s.check(ops); err != nil {
		return err
	}
	return s.alg.AtomicCtx(ctx, func(tx stm.Tx) { s.apply(tx, ops, res) })
}

// stmSet is a stmds.HashMap used as a set: a key is a member iff mapped.
type stmSet struct{ m *stmds.HashMap }

func (s stmSet) Add(tx stm.Tx, key int64) bool    { return s.m.Put(tx, key, 1) }
func (s stmSet) Remove(tx stm.Tx, key int64) bool { return s.m.Delete(tx, key) }

func (s stmSet) Contains(tx stm.Tx, key int64) bool {
	_, ok := s.m.Get(tx, key)
	return ok
}

func (s stmSet) Keys() (keys []int64) {
	s.m.Range(func(k int64, _ uint64) { keys = append(keys, k) })
	return keys
}
