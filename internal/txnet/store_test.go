package txnet

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/stm/norec"
)

// storeShape is one store as the wire sees it: a constructor and the kind
// of each structure index. The supported codes per kind are spelled out
// here independently of kindOps, so the test checks the table rather than
// reusing it.
type storeShape struct {
	name  string
	new   func(t *testing.T) Store
	kinds []string
}

var (
	setCodes = []OpCode{OpAdd, OpRemove, OpContains}
	mapCodes = []OpCode{OpPut, OpGet, OpDelete, OpContains}
	pqCodes  = []OpCode{OpAdd, OpMin, OpRemoveMin}
)

func storeShapes() []storeShape {
	return []storeShape{
		{"otb", func(*testing.T) Store { return NewOTBStore() }, []string{"set", "map", "pq"}},
		{"mvotb", func(t *testing.T) Store {
			s := NewMVOTBStore()
			t.Cleanup(s.Stop)
			return s
		}, []string{"set", "map"}},
		{"stm", func(*testing.T) Store { return NewSTMStore(norec.New(), 1<<12) }, []string{"set", "map"}},
	}
}

// allCodes is every op code plus two unknown ones.
func allCodes() []OpCode {
	var codes []OpCode
	for c := OpCode(0); c <= numOpCodes; c++ {
		codes = append(codes, c)
	}
	return append(codes, 255)
}

func supported(kind string, c OpCode) bool {
	codes := map[string][]OpCode{"set": setCodes, "map": mapCodes, "pq": pqCodes}[kind]
	for _, s := range codes {
		if s == c {
			return true
		}
	}
	return false
}

// dumpSorted returns s's DumpOps stream in (struct, key) order.
func dumpSorted(s Store) []Op {
	var ops []Op
	s.DumpOps(func(op Op) { ops = append(ops, op) })
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Struct != ops[j].Struct {
			return ops[i].Struct < ops[j].Struct
		}
		return ops[i].Key < ops[j].Key
	})
	return ops
}

// conformanceScript is a seeded run of batches over set 0 and map 1: mixed
// batches (with read-your-writes inside one batch), and every fourth batch
// all-read, which MVOTBStore serves from a snapshot.
func conformanceScript() [][]Op {
	rng := rand.New(rand.NewSource(14))
	script := make([][]Op, 300)
	for i := range script {
		batch := make([]Op, 1+rng.Intn(4))
		for j := range batch {
			k := rng.Int63n(16)
			if rng.Intn(2) == 0 {
				c := setCodes[rng.Intn(len(setCodes))]
				if i%4 == 3 {
					c = OpContains
				}
				batch[j] = Op{Code: c, Struct: 0, Key: k}
			} else {
				c := mapCodes[rng.Intn(len(mapCodes))]
				if i%4 == 3 {
					c = []OpCode{OpGet, OpContains}[rng.Intn(2)]
				}
				batch[j] = Op{Code: c, Struct: 1, Key: k, Val: rng.Uint64()}
			}
		}
		script[i] = batch
	}
	return script
}

// modelResults runs the script against a sequential set+map model.
func modelResults(script [][]Op) ([][]OpResult, []Op) {
	set := map[int64]bool{}
	kv := map[int64]uint64{}
	out := make([][]OpResult, len(script))
	for i, batch := range script {
		out[i] = make([]OpResult, len(batch))
		for j, op := range batch {
			var r OpResult
			switch {
			case op.Struct == 0 && op.Code == OpAdd:
				r.OK = !set[op.Key]
				set[op.Key] = true
			case op.Struct == 0 && op.Code == OpRemove:
				r.OK = set[op.Key]
				delete(set, op.Key)
			case op.Struct == 0:
				r.OK = set[op.Key]
			case op.Code == OpPut:
				_, had := kv[op.Key]
				r.OK = !had
				kv[op.Key] = op.Val
			case op.Code == OpGet:
				r.Out, r.OK = kv[op.Key]
			case op.Code == OpDelete:
				_, r.OK = kv[op.Key]
				delete(kv, op.Key)
			default:
				_, r.OK = kv[op.Key]
			}
			out[i][j] = r
		}
	}
	var state []Op
	for k := range set {
		state = append(state, Op{Code: OpAdd, Struct: 0, Key: k})
	}
	for k, v := range kv {
		state = append(state, Op{Code: OpPut, Struct: 1, Key: k, Val: v})
	}
	sort.Slice(state, func(i, j int) bool {
		if state[i].Struct != state[j].Struct {
			return state[i].Struct < state[j].Struct
		}
		return state[i].Key < state[j].Key
	})
	return out, state
}

// TestStoreConformance drives one op script through every store and
// checks the results and final state against a sequential model, that each
// (kind, unsupported code) pair is refused with ErrBadOp before anything
// applies, and that DumpOps replayed into a fresh store rebuilds the same
// state.
func TestStoreConformance(t *testing.T) {
	script := conformanceScript()
	want, wantState := modelResults(script)
	ctx := context.Background()
	for _, sh := range storeShapes() {
		t.Run(sh.name, func(t *testing.T) {
			s := sh.new(t)
			for i, batch := range script {
				res := make([]OpResult, len(batch))
				if err := s.Exec(ctx, batch, res); err != nil {
					t.Fatalf("batch %d %v: %v", i, batch, err)
				}
				for j := range res {
					if res[j] != want[i][j] {
						t.Fatalf("batch %d op %d %+v: got %+v, want %+v", i, j, batch[j], res[j], want[i][j])
					}
				}
			}
			state := dumpSorted(s)
			if !slices.Equal(state, wantState) {
				t.Fatalf("final state:\n got %v\nwant %v", state, wantState)
			}

			// Every code (and two past the last) against every structure:
			// supported codes run, the rest are refused and apply nothing,
			// not even the valid op ahead of them in the batch.
			for st, kind := range sh.kinds {
				valid := Op{Code: OpAdd, Struct: uint32(st), Key: 100}
				if kind == "map" {
					valid = Op{Code: OpPut, Struct: uint32(st), Key: 100, Val: 1}
				}
				for _, c := range allCodes() {
					before := dumpSorted(s)
					batch := []Op{valid, {Code: c, Struct: uint32(st), Key: 101}}
					err := s.Exec(ctx, batch, make([]OpResult, 2))
					if supported(kind, c) {
						if err != nil {
							t.Fatalf("%s on %s %d: %v", c, kind, st, err)
						}
						continue
					}
					if !errors.Is(err, ErrBadOp) {
						t.Fatalf("%s on %s %d: got %v, want ErrBadOp", c, kind, st, err)
					}
					if after := dumpSorted(s); !slices.Equal(before, after) {
						t.Fatalf("%s on %s %d: refused batch applied: %v -> %v", c, kind, st, before, after)
					}
				}
			}
			err := s.Exec(ctx, []Op{{Code: OpContains, Struct: uint32(len(sh.kinds)), Key: 1}}, make([]OpResult, 1))
			if !errors.Is(err, ErrBadOp) {
				t.Fatalf("structure %d of %d: got %v, want ErrBadOp", len(sh.kinds), len(sh.kinds), err)
			}

			// DumpOps round trip into a fresh store of the same runtime.
			state = dumpSorted(s)
			fresh := sh.new(t)
			var ops []Op
			s.DumpOps(func(op Op) { ops = append(ops, op) })
			if err := fresh.Exec(ctx, ops, make([]OpResult, len(ops))); err != nil {
				t.Fatalf("replaying the dump: %v", err)
			}
			if got := dumpSorted(fresh); !slices.Equal(got, state) {
				t.Fatalf("dump round trip:\n got %v\nwant %v", got, state)
			}
		})
	}
}

// TestSnapshotPayloadDeterministic: two snapshots of an unchanged store
// are byte-identical, for every store, so a snapshot is a function of the
// state alone.
func TestSnapshotPayloadDeterministic(t *testing.T) {
	ctx := context.Background()
	for _, sh := range storeShapes() {
		t.Run(sh.name, func(t *testing.T) {
			s := sh.new(t)
			var ops []Op
			for k := int64(0); k < 200; k++ {
				ops = append(ops, Op{Code: OpAdd, Struct: 0, Key: k * 7}, Op{Code: OpPut, Struct: 1, Key: k * 13, Val: uint64(k)})
			}
			if err := s.Exec(ctx, ops, make([]OpResult, len(ops))); err != nil {
				t.Fatal(err)
			}
			d := &Durable{store: s, sess: newSessionTable(time.Hour)}
			a, b := d.snapshotPayloadLocked(), d.snapshotPayloadLocked()
			if !bytes.Equal(a, b) {
				t.Fatalf("two snapshots of one state differ (%d and %d bytes)", len(a), len(b))
			}
		})
	}
}
