package main

import (
	"context"
	"math"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/txnet"
)

func TestRecorderQuantileError(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var r recorder
	samples := make([]float64, 200000)
	for i := range samples {
		ns := math.Exp(rng.NormFloat64()*1.5 + 10) // a median near 22 µs, a long tail
		samples[i] = math.Floor(ns)
		r.record(int64(ns))
	}
	slices.Sort(samples)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := samples[int(q*float64(len(samples)))]
		got := r.quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("q%v: got %.0f ns, want %.0f ns (error %.2f%%)", q, got, want, rel*100)
		}
	}
}

func TestBucketsRoundTrip(t *testing.T) {
	for _, ns := range []uint64{0, 1, 127, 128, 255, 256, 511, 1000, 123456789, 1 << 40, 1 << 60} {
		low, width := bucketRange(bucketOf(ns))
		if ns < 1<<41 && (ns < low || ns >= low+width) {
			t.Errorf("%d: bucket [%d, %d) does not hold it", ns, low, low+width)
		}
		if width > 1 && float64(width)/float64(low) > 1.0/(1<<subBits)+1e-9 {
			t.Errorf("%d: bucket width %d is over 1/%d of %d", ns, width, 1<<subBits, low)
		}
	}
}

// setOnly is a faulty store: it applies only the set half of every write
// and reports the map half as done.
type setOnly struct{ txnet.DurableStore }

func (s setOnly) Exec(ctx context.Context, ops []txnet.Op, res []txnet.OpResult) error {
	var kept []txnet.Op
	var at []int
	for i, op := range ops {
		if op.Code != txnet.OpPut && op.Code != txnet.OpDelete {
			kept = append(kept, op)
			at = append(at, i)
		}
	}
	out := make([]txnet.OpResult, len(kept))
	if err := s.DurableStore.Exec(ctx, kept, out); err != nil {
		return err
	}
	for j, i := range at {
		res[i] = out[j]
	}
	for i, op := range ops {
		if op.Code == txnet.OpPut || op.Code == txnet.OpDelete {
			res[i] = res[i-1] // the set op it is paired with
		}
	}
	return nil
}

func shortConfig(t *testing.T, name string, traced bool) config {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return config{w: w, seed: 7, window: 300 * time.Millisecond, warmup: 100 * time.Millisecond,
		traced: traced, workDir: t.TempDir()}
}

func TestChecksFireOnFaultyStore(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := shortConfig(t, w.name, false)
			cfg.wrap = func(s txnet.DurableStore) txnet.DurableStore { return setOnly{s} }
			r, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d violations in %d transactions", r.Violations, r.Attempted)
			if r.Correct || r.Violations == 0 || r.Failed < r.Violations {
				t.Fatalf("faulty store passed: correct=%v violations=%d failed=%d", r.Correct, r.Violations, r.Failed)
			}
		})
	}
}

// TestRecoveryCheckFires keeps every transaction consistent but serves a
// state the log cannot rebuild: the durable store misses one key in both
// structures, so only the comparison with the reopened log can see it.
func TestRecoveryCheckFires(t *testing.T) {
	final := []txnet.Op{{Code: txnet.OpAdd, Struct: setIdx, Key: 2},
		{Code: txnet.OpPut, Struct: mapIdx, Key: 2, Val: valueOf(2)}}
	recovered := append(slices.Clone(final),
		txnet.Op{Code: txnet.OpAdd, Struct: setIdx, Key: 4},
		txnet.Op{Code: txnet.OpPut, Struct: mapIdx, Key: 4, Val: valueOf(4)})
	if checkState(final) != 0 || checkState(recovered) != 0 {
		t.Fatal("both states should be pair-consistent")
	}
	if diffOps(final, recovered) == 0 || diffOps(final, final) != 0 {
		t.Fatal("diffOps does not tell the states apart")
	}
}

func TestFaultFreeRuns(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := shortConfig(t, w.name, traced)
			cfg.traceOut = filepath.Join(cfg.workDir, "trace.json")
			r, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, r.Correct, r.Failed, r.Attempted)
			}
			want := []string{"tput_tx_s", "lat_p50_us", "lat_p99_us", "lat_p999_us", "setup_s", "peak_rss_mb"}
			if traced {
				want = []string{"txnet.store.exec_us_p50", "otb.commits", "go.allocs_per_tx"}
				if w.wire {
					want = append(want, "txnet.client.resends", "txnet.server.execute_us")
				}
				if w.durable {
					want = append(want, "wal.snapshots", "wal.recover_ms")
				}
				if v := r.Metrics["txnet.client.resends"].Value; v != 0 {
					t.Errorf("%s: %v resends in a fault-free run", w.name, v)
				}
			}
			for _, m := range want {
				if _, ok := r.Metrics[m]; !ok {
					t.Errorf("%s traced=%v: no metric %s", w.name, traced, m)
				}
			}
		}
	}
}
