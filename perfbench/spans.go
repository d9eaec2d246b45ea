package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	"repro/internal/txnet"
)

// maxSpans bounds the traced run's span buffer (about 7 MB), so tracing
// memory does not grow with throughput. Spans past it are counted, not kept.
const maxSpans = 1 << 16

// span is one timed call made from the benchmark's own code.
type span struct {
	name   string
	track  int // Perfetto thread: callers are 1..conns, Exec lanes follow
	start  time.Duration
	dur    time.Duration
	stages [trace.NumStages]time.Duration // client calls only
}

// spanLog keeps spans in memory until the run ends. Appends from several
// goroutines claim distinct slots; it is read after they have all joined.
type spanLog struct {
	base    time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newSpanLog(base time.Time) *spanLog {
	return &spanLog{base: base, spans: make([]span, maxSpans)}
}

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	i := l.next.Add(1) - 1
	if i >= int64(len(l.spans)) {
		l.dropped.Add(1)
		return
	}
	l.spans[i] = s
}

func (l *spanLog) kept() []span {
	return l.spans[:min(l.next.Load(), int64(len(l.spans)))]
}

// writePerfetto writes the kept spans as Chrome trace-event JSON, which
// ui.perfetto.dev loads; provenance goes into the trace's metadata.
func (l *spanLog) writePerfetto(path string, prov map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	spans := l.kept()
	events := make([]event, 0, len(spans)+2*conns)
	for t := 1; t <= 2*conns; t++ {
		name := fmt.Sprintf("caller %d", t)
		if t > conns {
			name = fmt.Sprintf("store.Exec lane %d", t-conns)
		}
		events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: t,
			Args: map[string]any{"name": name}})
	}
	for _, s := range spans {
		e := event{Name: s.name, Ph: "X", PID: 1, TID: s.track,
			TS: float64(s.start.Nanoseconds()) / 1e3, Dur: float64(s.dur.Nanoseconds()) / 1e3}
		for st, d := range s.stages {
			if d > 0 {
				if e.Args == nil {
					e.Args = map[string]any{}
				}
				e.Args[trace.Stage(st).String()+"_us"] = float64(d.Nanoseconds()) / 1e3
			}
		}
		events = append(events, e)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"metadata":        map[string]any{"provenance": prov, "spans_dropped": l.dropped.Load()},
	})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// maxLanes bounds how many Exec calls the timed store tracks at once; the
// workloads have at most conns.
const maxLanes = 8

// lane is one Exec slot's tallies. The slot is held by one call at a time,
// so recording into it needs no lock.
type lane struct {
	lat  recorder
	busy time.Duration
}

// timedStore is the traced run's store: it implements txnet.DurableStore
// by delegating to the real store, and times every Exec from outside, so
// its numbers can be set beside the server's own execute stage. Read the
// lanes only after every caller has returned and the server has shut down.
type timedStore struct {
	txnet.DurableStore
	on    atomic.Bool   // recording, set for the timed window only
	held  atomic.Uint32 // bit i is set while lane i is in use
	lanes [maxLanes]lane
	spans *spanLog
}

func (s *timedStore) Exec(ctx context.Context, ops []txnet.Op, res []txnet.OpResult) error {
	if !s.on.Load() {
		return s.DurableStore.Exec(ctx, ops, res)
	}
	i := s.acquireLane()
	t0 := time.Now()
	err := s.DurableStore.Exec(ctx, ops, res)
	d := time.Since(t0)
	l := &s.lanes[i]
	l.lat.record(d.Nanoseconds())
	l.busy += d
	s.held.And(^(uint32(1) << i))
	s.spans.add(span{name: "store.Exec", track: conns + 1 + i, start: t0.Sub(s.spans.base), dur: d})
	return err
}

// acquireLane claims the lowest free lane, so concurrent Exec spans never
// overlap on one Perfetto track.
func (s *timedStore) acquireLane() int {
	for {
		cur := s.held.Load()
		i := bits.TrailingZeros32(^cur)
		if i >= maxLanes {
			runtime.Gosched()
			continue
		}
		if s.held.CompareAndSwap(cur, cur|1<<i) {
			return i
		}
	}
}
