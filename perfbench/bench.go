package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/txnet"
	"repro/internal/wal"
)

// setupReps is how many times a pass builds its system; the last build is
// the one measured. A build takes milliseconds, so one alone would read
// mostly scheduler noise: setup_s is the median of every build of every
// pass in a run.
const setupReps = 4

// defaultWarmup runs the workload untimed before the window, so the
// structures, the heap and the connections are at their steady state when
// timing starts.
const defaultWarmup = 500 * time.Millisecond

// config is one pass of one workload.
type config struct {
	w        workload
	seed     uint64
	window   time.Duration
	warmup   time.Duration
	traced   bool
	workDir  string // the durable workload's WAL directories go under it
	traceOut string // the traced pass's Perfetto file
	// wrap, when set, replaces the store the program serves; the tests use
	// it to inject a faulty store.
	wrap func(txnet.DurableStore) txnet.DurableStore
}

// env is one built system: a store, and for the wire workloads the server
// and its clients.
type env struct {
	served  txnet.DurableStore // the OTB store, as wrapped by config.wrap and the traced run
	timed   *timedStore        // traced runs only
	durOpts txnet.DurabilityOptions
	srv     *txnet.Server
	clients []*txnet.Client
}

// metric is one named result. Samples is set on latencies.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples uint64  `json:"samples,omitempty"`
}

// result is what one pass prints.
type result struct {
	Workload   string            `json:"workload"`
	Traced     bool              `json:"traced"`
	Provenance map[string]any    `json:"provenance"`
	Correct    bool              `json:"correct"`
	Attempted  uint64            `json:"attempted"`
	Failed     uint64            `json:"failed"`
	Errors     uint64            `json:"errors"`
	Violations uint64            `json:"violations"`
	Metrics    map[string]metric `json:"metrics"`
	SetupS     []float64         `json:"setup_samples_s,omitempty"`
}

// caller is one closed-loop client's state and tallies.
type caller struct {
	gen      *gen
	lat      recorder
	stages   [trace.NumStages]recorder // traced wire runs only
	netSum   time.Duration
	totalSum time.Duration
	issued   uint64 // transactions issued inside the window
	errs     uint64
	bad      uint64 // result-check violations, warm-up included
}

func setup(cfg *config, dir string, spans *spanLog) (*env, error) {
	ctx := context.Background()
	e := &env{served: txnet.NewOTBStore()}
	if cfg.wrap != nil {
		e.served = cfg.wrap(e.served)
	}
	if cfg.traced {
		e.timed = &timedStore{DurableStore: e.served, spans: spans}
		e.served = e.timed
	}
	pre := prepopulation(cfg.w, 64)
	if !cfg.w.wire {
		res := make([]txnet.OpResult, 2*64)
		for _, ops := range pre {
			if err := e.served.Exec(ctx, ops, res[:len(ops)]); err != nil {
				return nil, fmt.Errorf("prepopulate: %w", err)
			}
		}
		return e, nil
	}
	opts := txnet.Options{Store: e.served}
	if cfg.w.durable {
		e.durOpts = txnet.DurabilityOptions{Dir: dir, Fsync: wal.SyncNever}
		d, err := txnet.OpenDurable(e.served, e.durOpts)
		if err != nil {
			return nil, fmt.Errorf("open durable store: %w", err)
		}
		opts.Durable = d
	}
	srv, err := txnet.Listen("127.0.0.1:0", opts)
	if err != nil {
		if opts.Durable != nil {
			_ = opts.Durable.Close()
		}
		return nil, fmt.Errorf("listen: %w", err)
	}
	e.srv = srv
	for i := 0; i < conns; i++ {
		c, err := txnet.Dial(srv.Addr(), &txnet.ClientOptions{Seed: int64(cfg.seed)*conns + int64(i) + 1})
		if err != nil {
			_ = e.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.clients = append(e.clients, c)
	}
	for _, ops := range pre {
		if _, err := e.clients[0].Do(ctx, ops); err != nil {
			_ = e.close()
			return nil, fmt.Errorf("prepopulate: %w", err)
		}
	}
	return e, nil
}

// close says goodbye on every client and drains the server, which closes
// the log of a durable one.
func (e *env) close() error {
	var errs []error
	for _, c := range e.clients {
		errs = append(errs, c.Close())
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		errs = append(errs, e.srv.Shutdown(ctx))
	}
	return errors.Join(errs...)
}

// run executes one pass: build the system setupReps times, warm up, time
// the window, then check the final state.
func run(cfg config) (*result, error) {
	base := time.Now()
	var spans *spanLog
	if cfg.traced {
		spans = newSpanLog(base)
	}
	var e *env
	setupS := make([]float64, setupReps)
	for i := range setupS {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("wal-%d", i))
		// Every build starts from a collected heap, so the garbage of the
		// one before neither slows it nor raises the peak resident set.
		runtime.GC()
		t0 := time.Now()
		var err error
		e, err = setup(&cfg, dir, spans)
		if err != nil {
			return nil, err
		}
		setupS[i] = time.Since(t0).Seconds()
		if i < setupReps-1 {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("wal-%d", setupReps-1))
	if cfg.traced {
		telemetry.Enable()
	}

	callers := make([]*caller, conns)
	for i := range callers {
		callers[i] = &caller{gen: newGen(cfg.w, cfg.seed, i)}
	}
	winStart := time.Now().Add(cfg.warmup)
	winEnd := winStart.Add(cfg.window)
	var wg sync.WaitGroup
	for i, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(&cfg, e, i, c, winStart, winEnd, spans)
		}()
	}
	time.Sleep(time.Until(winStart))
	var before counters
	if cfg.traced {
		before = snapshot(e)
		e.timed.on.Store(true)
	}
	wg.Wait()
	var after counters
	if cfg.traced {
		e.timed.on.Store(false)
		after = snapshot(e)
	}

	var all caller
	for _, c := range callers {
		all.lat.merge(&c.lat)
		for st := range all.stages {
			all.stages[st].merge(&c.stages[st])
		}
		all.netSum += c.netSum
		all.totalSum += c.totalSum
		all.issued += c.issued
		all.errs += c.errs
		all.bad += c.bad
	}

	// The state checks: set and map agree, and a durable store's log
	// rebuilds exactly the state it served.
	final := dumpSorted(e.served)
	all.bad += uint64(checkState(final))
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("shut down: %w", err)
	}
	var rec txnet.RecoveryStats
	if cfg.w.durable {
		fresh := txnet.NewOTBStore()
		d, err := txnet.OpenDurable(fresh, e.durOpts)
		if err != nil {
			return nil, fmt.Errorf("reopen durable store: %w", err)
		}
		rec = d.Recovery()
		all.bad += uint64(diffOps(final, dumpSorted(fresh)))
		if err := d.Close(); err != nil {
			return nil, fmt.Errorf("close reopened log: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}

	r := &result{
		Workload:   cfg.w.name,
		Traced:     cfg.traced,
		Provenance: provenance(&cfg),
		Attempted:  all.issued,
		Errors:     all.errs,
		Violations: all.bad,
		Failed:     all.errs + all.bad,
		Correct:    all.bad == 0,
		Metrics:    map[string]metric{},
	}
	committed := all.issued - all.errs
	if cfg.traced {
		layerMetrics(r.Metrics, &cfg, e, &all, committed, &before, &after, rec)
		if err := spans.writePerfetto(cfg.traceOut, r.Provenance); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	} else {
		slices.Sort(setupS)
		r.Metrics["tput_tx_s"] = metric{Value: float64(committed) / cfg.window.Seconds(), Unit: "tx/s"}
		for _, p := range []struct {
			name string
			q    float64
		}{{"lat_p50_us", 0.5}, {"lat_p99_us", 0.99}, {"lat_p999_us", 0.999}} {
			r.Metrics[p.name] = metric{Value: all.lat.quantile(p.q) / 1e3, Unit: "us", Samples: all.lat.n}
		}
		r.Metrics["setup_s"] = metric{Value: setupS[len(setupS)/2], Unit: "s"}
		r.SetupS = setupS
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		r.Metrics["peak_rss_mb"] = metric{Value: rss, Unit: "MB"}
	}
	return r, nil
}

// drive is one closed-loop caller: it issues its next transaction only
// after the last returned, until winEnd. Nothing is cancelled at window
// end: the transaction in flight finishes under a live context, and only
// transactions issued inside [winStart, winEnd) are counted.
func drive(cfg *config, e *env, i int, c *caller, winStart, winEnd time.Time, spans *spanLog) {
	ctx := context.Background()
	res := make([]txnet.OpResult, 2*cfg.w.keysPerTx)
	var st txnet.Stages
	name := "caller.Exec"
	if cfg.w.wire {
		name = "client.DoStages"
	}
	for {
		ops := c.gen.next()
		t0 := time.Now()
		if !t0.Before(winEnd) {
			return
		}
		var out []txnet.OpResult
		var err error
		switch {
		case !cfg.w.wire:
			err = e.served.Exec(ctx, ops, res)
			out = res
		case cfg.traced:
			out, err = e.clients[i].DoStages(ctx, ops, &st)
		default:
			out, err = e.clients[i].Do(ctx, ops)
		}
		t1 := time.Now()
		if err == nil {
			c.bad += uint64(checkTx(ops, out))
		}
		if t0.Before(winStart) {
			continue
		}
		c.issued++
		if err != nil {
			c.errs++
			continue
		}
		d := t1.Sub(t0)
		c.lat.record(d.Nanoseconds())
		if !cfg.traced {
			continue
		}
		s := span{name: name, track: i + 1, start: t0.Sub(spans.base), dur: d}
		if cfg.w.wire {
			s.stages = st.D
			c.netSum += st.D[trace.StageNet]
			c.totalSum += st.Total
			for _, stage := range []trace.Stage{trace.StageQueue, trace.StageNet,
				trace.StageDispatch, trace.StageAdmission, trace.StageExecute} {
				c.stages[stage].record(st.D[stage].Nanoseconds())
			}
			if cfg.w.durable && ops[0].Code != txnet.OpContains {
				c.stages[trace.StageWALAppend].record(st.D[trace.StageWALAppend].Nanoseconds())
				c.stages[trace.StageFsync].record(st.D[trace.StageFsync].Nanoseconds())
			}
		}
		spans.add(s)
	}
}

// counters is what the traced run reads from each layer before and after
// the window.
type counters struct {
	client  txnet.ClientStats
	server  txnet.Stats
	wal     wal.Stats
	otb     telemetry.MeterSnapshot
	rt      []metrics.Sample
	pauseNS uint64
	gcs     uint32
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func snapshot(e *env) counters {
	var c counters
	for _, cl := range e.clients {
		s := cl.Stats()
		c.client.Resends += s.Resends
		c.client.Reconnects += s.Reconnects
		c.client.Overloads += s.Overloads
	}
	if e.srv != nil {
		c.server = e.srv.Stats()
	}
	c.wal = wal.StatsSnapshot()
	c.otb = telemetry.M("OTB").Snapshot()
	c.rt = make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		c.rt[i].Name = name
	}
	metrics.Read(c.rt)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.pauseNS, c.gcs = ms.PauseTotalNs, ms.NumGC
	return c
}

// layerMetrics fills the per-layer metrics of a traced pass. The txnet
// metrics exist only on the wire workloads and the wal metrics only on the
// durable one; run.py reports the missing ones as 0.
func layerMetrics(m map[string]metric, cfg *config, e *env, all *caller, committed uint64,
	b, a *counters, rec txnet.RecoveryStats) {
	us := func(r *recorder, q float64) metric {
		return metric{Value: r.quantile(q) / 1e3, Unit: "us", Samples: r.n}
	}
	count := func(v uint64) metric { return metric{Value: float64(v), Unit: "count"} }
	per := func(v, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(v) / float64(n)
	}

	if cfg.w.wire {
		m["txnet.client.queue_us"] = us(&all.stages[trace.StageQueue], 0.5)
		m["txnet.client.net_us"] = us(&all.stages[trace.StageNet], 0.5)
		m["txnet.client.resends"] = count(a.client.Resends - b.client.Resends)
		m["txnet.client.reconnects"] = count(a.client.Reconnects - b.client.Reconnects)
		m["txnet.client.overloads"] = count(a.client.Overloads - b.client.Overloads)
		m["txnet.server.dispatch_us"] = us(&all.stages[trace.StageDispatch], 0.5)
		m["txnet.server.admission_us"] = us(&all.stages[trace.StageAdmission], 0.5)
		m["txnet.server.execute_us"] = us(&all.stages[trace.StageExecute], 0.5)
		m["txnet.server.shed"] = count(a.server.Shed - b.server.Shed)
		m["txnet.server.replays"] = count(a.server.Replays - b.server.Replays)
		m["txnet.stages.attributed_frac"] = metric{
			Value: 1 - per(uint64(all.netSum), uint64(all.totalSum)), Unit: "fraction"}
	}

	var exec lane
	for i := range e.timed.lanes {
		l := &e.timed.lanes[i]
		exec.lat.merge(&l.lat)
		exec.busy += l.busy
	}
	m["txnet.store.exec_us_p50"] = us(&exec.lat, 0.5)
	m["txnet.store.exec_us_p99"] = us(&exec.lat, 0.99)
	m["txnet.store.exec_calls"] = count(exec.lat.n)
	m["txnet.store.busy_frac"] = metric{Value: exec.busy.Seconds() / (cfg.window.Seconds() * conns), Unit: "fraction"}

	commits := a.otb.Commits - b.otb.Commits
	aborts := a.otb.TotalAborts() - b.otb.TotalAborts()
	m["otb.commits"] = count(commits)
	m["otb.aborts"] = count(aborts)
	m["otb.commit_ratio"] = metric{Value: per(commits, commits+aborts), Unit: "fraction"}
	m["otb.escalations"] = count(a.otb.Escalations - b.otb.Escalations)

	if cfg.w.durable {
		commits := a.server.Commits - b.server.Commits
		snaps := a.wal.Snapshots - b.wal.Snapshots
		m["wal.append_us"] = us(&all.stages[trace.StageWALAppend], 0.5)
		m["wal.fsync_wait_us"] = us(&all.stages[trace.StageFsync], 0.5)
		m["wal.bytes_per_commit"] = metric{Value: per(a.wal.AppendedBytes-b.wal.AppendedBytes, commits), Unit: "B"}
		m["wal.snapshots"] = count(snaps)
		m["wal.commits_per_snapshot"] = metric{Value: per(commits, snaps), Unit: "count"}
		m["wal.recover_ms"] = metric{Value: float64(rec.Elapsed.Nanoseconds()) / 1e6, Unit: "ms"}
		m["wal.replayed_records"] = count(uint64(rec.RecordsReplayed))
	}

	m["go.allocs_per_tx"] = metric{Value: per(a.rt[0].Value.Uint64()-b.rt[0].Value.Uint64(), committed), Unit: "allocs/tx"}
	m["go.alloc_bytes_per_tx"] = metric{Value: per(a.rt[1].Value.Uint64()-b.rt[1].Value.Uint64(), committed), Unit: "B/tx"}
	m["go.gc_cycles"] = count(uint64(a.gcs - b.gcs))
	m["go.gc_pause_ms"] = metric{Value: float64(a.pauseNS-b.pauseNS) / 1e6, Unit: "ms"}
	m["go.sched_latency_p99_us"] = metric{Value: histDeltaQuantile(b.rt[2].Value.Float64Histogram(),
		a.rt[2].Value.Float64Histogram(), 0.99) * 1e6, Unit: "us"}
}

// histDeltaQuantile returns the q-quantile of the samples a runtime/metrics
// histogram gained between two reads, interpolating inside the bucket.
func histDeltaQuantile(b, a *metrics.Float64Histogram, q float64) float64 {
	var n uint64
	delta := make([]uint64, len(a.Counts))
	for i := range a.Counts {
		delta[i] = a.Counts[i] - b.Counts[i]
		n += delta[i]
	}
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for i, c := range delta {
		if c == 0 || cum+float64(c) < rank {
			cum += float64(c)
			continue
		}
		lo, hi := a.Buckets[i], a.Buckets[i+1]
		if lo < 0 || hi > 1e9 { // the open-ended edge buckets
			return max(lo, 0)
		}
		return lo + (hi-lo)*(rank-cum)/float64(c)
	}
	return a.Buckets[len(a.Buckets)-1]
}

func provenance(cfg *config) map[string]any {
	fsync := "none"
	if cfg.w.durable {
		fsync = wal.SyncNever.String()
	}
	return map[string]any{
		"seed":        cfg.seed,
		"workload":    cfg.w.name,
		"keys":        cfg.w.keys,
		"read_pct":    cfg.w.readPct,
		"keys_per_tx": cfg.w.keysPerTx,
		"callers":     conns,
		"wire":        cfg.w.wire,
		"fsync":       fsync,
		"window_s":    cfg.window.Seconds(),
		"warmup_s":    cfg.warmup.Seconds(),
		"setup_reps":  setupReps,
		"go":          runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"num_cpu":     runtime.NumCPU(),
		"goos":        runtime.GOOS,
		"goarch":      runtime.GOARCH,
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) from Linux procfs.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
