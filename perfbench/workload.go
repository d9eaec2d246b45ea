package main

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/txnet"
)

// Structure indexes of txnet.NewOTBStore. Every transaction updates or
// reads set 0 and map 1 as a pair, so the two always hold the same keys.
const (
	setIdx = 0
	mapIdx = 1
)

// conns is the number of closed-loop callers: one per CPU of the 2-CPU
// host the bounds were fixed on. A txnet session has one request in
// flight, so each caller is one txnet.Client (or one Exec goroutine).
const conns = 2

// workload is one traffic mix. BENCHMARK.json records why each exists.
type workload struct {
	name      string
	keys      int64 // key range [0, keys); the even keys are prepopulated
	readPct   int   // read transactions, in percent; the rest write
	keysPerTx int
	wire      bool // served by txnet over loopback; otherwise Exec is called directly
	durable   bool // txnet.OpenDurable with wal.SyncNever
}

var workloads = []workload{
	{name: "wire-read", keys: 1024, readPct: 80, keysPerTx: 1, wire: true},
	{name: "wire-durable", keys: 1024, readPct: 0, keysPerTx: 1, wire: true, durable: true},
	{name: "exec-hot", keys: 64, readPct: 50, keysPerTx: 2},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// valueOf is the value every Put writes for key, so a Get can be checked.
func valueOf(key int64) uint64 { return uint64(key)*0x9E3779B97F4A7C15 | 1 }

// gen draws one caller's transactions. The same seed and caller give the
// same sequence.
type gen struct {
	w   workload
	rng *rand.Rand
	ops []txnet.Op
}

func newGen(w workload, seed uint64, caller int) *gen {
	return &gen{
		w:   w,
		rng: rand.New(rand.NewPCG(seed, uint64(caller)+1)),
		ops: make([]txnet.Op, 0, 2*w.keysPerTx),
	}
}

// next returns the next transaction. A write adds or removes each key in
// both structures; a read asks both structures about each key. The slice
// is reused by the following call.
func (g *gen) next() []txnet.Op {
	ops := g.ops[:0]
	read := g.rng.IntN(100) < g.w.readPct
	add := g.rng.IntN(2) == 0
	var first int64 = -1
	for i := 0; i < g.w.keysPerTx; i++ {
		k := g.rng.Int64N(g.w.keys)
		for k == first {
			k = g.rng.Int64N(g.w.keys)
		}
		if i == 0 {
			first = k
		}
		switch {
		case read:
			ops = append(ops,
				txnet.Op{Code: txnet.OpContains, Struct: setIdx, Key: k},
				txnet.Op{Code: txnet.OpGet, Struct: mapIdx, Key: k})
		case add:
			ops = append(ops,
				txnet.Op{Code: txnet.OpAdd, Struct: setIdx, Key: k},
				txnet.Op{Code: txnet.OpPut, Struct: mapIdx, Key: k, Val: valueOf(k)})
		default:
			ops = append(ops,
				txnet.Op{Code: txnet.OpRemove, Struct: setIdx, Key: k},
				txnet.Op{Code: txnet.OpDelete, Struct: mapIdx, Key: k})
		}
	}
	g.ops = ops
	return ops
}

// prepopulation returns transactions that add every even key to both
// structures, batch keys per transaction.
func prepopulation(w workload, batch int) [][]txnet.Op {
	var txs [][]txnet.Op
	var ops []txnet.Op
	for k := int64(0); k < w.keys; k += 2 {
		ops = append(ops,
			txnet.Op{Code: txnet.OpAdd, Struct: setIdx, Key: k},
			txnet.Op{Code: txnet.OpPut, Struct: mapIdx, Key: k, Val: valueOf(k)})
		if len(ops) == 2*batch {
			txs = append(txs, ops)
			ops = nil
		}
	}
	if len(ops) > 0 {
		txs = append(txs, ops)
	}
	return txs
}

// checkTx counts the pair invariants one transaction's results break.
// Set and map change together, so Contains agrees with Get's found bit,
// Add with Put's inserted bit and Remove with Delete's; a found value is
// the one Put writes.
func checkTx(ops []txnet.Op, res []txnet.OpResult) int {
	if len(res) != len(ops) {
		return 1
	}
	bad := 0
	for i := 0; i+1 < len(ops); i += 2 {
		s, m := res[i], res[i+1]
		if s.OK != m.OK || (ops[i+1].Code == txnet.OpGet && m.OK && m.Out != valueOf(ops[i+1].Key)) {
			bad++
		}
	}
	return bad
}

// dumpSorted returns the store's DumpOps stream in a canonical order: the
// map dumps in Go map order, so two equal states can emit it differently.
func dumpSorted(s txnet.DurableStore) []txnet.Op {
	var ops []txnet.Op
	s.DumpOps(func(op txnet.Op) { ops = append(ops, op) })
	sort.Slice(ops, func(i, j int) bool {
		a, b := ops[i], ops[j]
		if a.Struct != b.Struct {
			return a.Struct < b.Struct
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Code < b.Code
	})
	return ops
}

// checkState counts the keys on which the set and the map of a quiescent
// store disagree, and the map values Put did not write.
func checkState(ops []txnet.Op) int {
	set := map[int64]bool{}
	vals := map[int64]uint64{}
	for _, op := range ops {
		switch op.Struct {
		case setIdx:
			set[op.Key] = true
		case mapIdx:
			vals[op.Key] = op.Val
		}
	}
	bad := 0
	for k := range set {
		if _, ok := vals[k]; !ok {
			bad++
		}
	}
	for k, v := range vals {
		if !set[k] || v != valueOf(k) {
			bad++
		}
	}
	return bad
}

// diffOps counts the positions at which two sorted dumps differ.
func diffOps(a, b []txnet.Op) int {
	bad := 0
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			bad++
		}
	}
	return bad + max(len(a), len(b)) - n
}
