package txnet

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/chaos/failpoint"
	"repro/internal/chaos/leak"
)

func newTestClient(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, &ClientOptions{Seed: 1})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientBasic(t *testing.T) {
	leak.CheckCleanup(t)
	s := newTestServer(t, Options{})
	c := newTestClient(t, s.Addr())
	ctx := context.Background()

	if ok, err := c.SetAdd(ctx, 0, 5); err != nil || !ok {
		t.Fatalf("add: %v %v", ok, err)
	}
	if ok, err := c.SetContains(ctx, 0, 5); err != nil || !ok {
		t.Fatalf("contains: %v %v", ok, err)
	}
	if ok, err := c.MapPut(ctx, 1, 9, 77); err != nil || !ok {
		t.Fatalf("put: %v %v", ok, err)
	}
	if v, ok, err := c.MapGet(ctx, 1, 9); err != nil || !ok || v != 77 {
		t.Fatalf("get: %v %v %v", v, ok, err)
	}
	if ok, err := c.PQAdd(ctx, 2, 3); err != nil || !ok {
		t.Fatalf("pq add: %v %v", ok, err)
	}
	if k, ok, err := c.PQRemoveMin(ctx, 2); err != nil || !ok || k != 3 {
		t.Fatalf("pq remove-min: %v %v %v", k, ok, err)
	}

	// Multi-op batch through Do directly.
	res, err := c.Do(ctx, []Op{
		{Code: OpAdd, Struct: 0, Key: 6},
		{Code: OpContains, Struct: 0, Key: 5},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if !res[0].OK || !res[1].OK {
		t.Fatalf("batch results: %+v", res)
	}
}

func TestClientReconnectAfterConnDrop(t *testing.T) {
	leak.CheckCleanup(t)
	s := newTestServer(t, Options{})
	c := newTestClient(t, s.Addr())
	ctx := context.Background()

	// The next request frame read by the server kills its connection before
	// dispatch — the request was never executed, so the client's resend of
	// the same seq executes it exactly once.
	defer failpoint.Arm("txnet.conn.drop", failpoint.Spec{Action: failpoint.Panic, Nth: 1})()
	if ok, err := c.SetAdd(ctx, 0, 42); err != nil || !ok {
		t.Fatalf("add across drop: %v %v", ok, err)
	}
	if c.Stats().Resends == 0 || c.Stats().Reconnects == 0 {
		t.Fatalf("expected a resend over a fresh connection: %+v", c.Stats())
	}
	st := s.Stats()
	if st.DroppedConns != 1 {
		t.Fatalf("dropped conns: %d", st.DroppedConns)
	}
	if st.Commits != 1 || st.Replays != 0 {
		t.Fatalf("drop-before-dispatch must execute once, no replay: %+v", st)
	}
}

func TestClientRetryAfterPartialWrite(t *testing.T) {
	leak.CheckCleanup(t)
	s := newTestServer(t, Options{})
	c := newTestClient(t, s.Addr())
	ctx := context.Background()

	// The transaction commits, but its response is cut off mid-frame. The
	// client cannot tell "lost request" from "lost response" — only the
	// session cache can, by replaying the committed verdict.
	defer failpoint.Arm("txnet.write.partial", failpoint.Spec{Action: failpoint.Panic, Nth: 1})()
	ok, err := c.SetAdd(ctx, 0, 42)
	if err != nil || !ok {
		t.Fatalf("add across partial write: %v %v", ok, err)
	}
	st := s.Stats()
	if st.Commits != 1 {
		t.Fatalf("transaction must have applied exactly once: %+v", st)
	}
	if st.Replays != 1 {
		t.Fatalf("retry must be answered from the session cache: %+v", st)
	}
	// And the state agrees: the key is present, a fresh add is a duplicate.
	if ok, err := c.SetAdd(ctx, 0, 42); err != nil || ok {
		t.Fatalf("fresh add after replay: %v %v", ok, err)
	}
}

func TestClientReadStallDelay(t *testing.T) {
	leak.CheckCleanup(t)
	s := newTestServer(t, Options{})
	c := newTestClient(t, s.Addr())
	// A delayed server read path slows responses down but must not corrupt
	// the session: every op still applies exactly once, in order.
	defer failpoint.Arm("txnet.read.stall", failpoint.Spec{Action: failpoint.Delay, Delay: 5 * time.Millisecond, Every: 2})()
	for i := int64(0); i < 6; i++ {
		if ok, err := c.SetAdd(context.Background(), 0, i); err != nil || !ok {
			t.Fatalf("add %d under stall: %v %v", i, ok, err)
		}
	}
}

func TestClientOverloadBackoff(t *testing.T) {
	leak.CheckCleanup(t)
	st := newBlockingStore()
	s := newTestServer(t, Options{Store: st, MaxInflight: 1, AdmissionPatience: time.Millisecond})

	occupier := dialRaw(t, s.Addr())
	occupier.hello(0)
	occDone := make(chan response, 1)
	go func() {
		occDone <- occupier.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 1})
	}()
	<-st.waiting

	c := newTestClient(t, s.Addr())
	clientDone := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), []Op{{Code: OpAdd, Struct: 0, Key: 2}})
		clientDone <- err
	}()
	// The client must be shed at least once, then succeed after the slot
	// frees up — all without surfacing an error.
	waitFor(t, time.Second, func() bool { return c.Stats().Overloads > 0 })
	st.releaseAll()
	if occ := <-occDone; occ.status != StatusOK {
		t.Fatalf("occupier: %+v", occ)
	}
	if err := <-clientDone; err != nil {
		t.Fatalf("shed request never recovered: %v", err)
	}
}

func TestClientDeadline(t *testing.T) {
	leak.CheckCleanup(t)
	st := newBlockingStore()
	defer st.releaseAll()
	s := newTestServer(t, Options{Store: st})
	c := newTestClient(t, s.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.Do(ctx, []Op{{Code: OpAdd, Struct: 0, Key: 1}})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	// Definitive failure: nothing applied, and the next request proceeds.
	st.releaseAll()
	if ok, err := c.SetContains(context.Background(), 0, 1); err != nil || ok {
		t.Fatalf("deadline-exceeded txn leaked state: %v %v", ok, err)
	}
}

// TestClientCancelIsNotResend gives up on a request the server is still
// holding: the caller's own deadline ends the call, which must surface as
// the context's error and must not count as a resend. The abandoned request
// commits later; the next call must get its own verdict, not that one.
func TestClientCancelIsNotResend(t *testing.T) {
	leak.CheckCleanup(t)
	s := newTestServer(t, Options{})
	c := newTestClient(t, s.Addr())

	disarm := failpoint.Arm("txnet.server.stall", failpoint.Spec{Action: failpoint.Delay, Delay: 300 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.Do(ctx, []Op{{Code: OpAdd, Struct: 0, Key: 1}})
	disarm()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if st := c.Stats(); st.Resends != 0 {
		t.Fatalf("caller cancellation counted as a resend: %+v", st)
	}

	if ok, err := c.SetContains(context.Background(), 0, 2); err != nil || ok {
		t.Fatalf("next call got a stale verdict: %v %v", ok, err)
	}
	if ok, err := c.SetContains(context.Background(), 0, 1); err != nil || !ok {
		t.Fatalf("abandoned add did not commit: %v %v", ok, err)
	}
}

func TestClientUnavailableDuringDrain(t *testing.T) {
	leak.CheckCleanup(t)
	st := newBlockingStore()
	defer st.releaseAll()
	s := newTestServer(t, Options{Store: st})

	// Park one transaction so the drain has something to cancel.
	rc := dialRaw(t, s.Addr())
	rc.hello(0)
	inflight := make(chan response, 1)
	go func() {
		inflight <- rc.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 1})
	}()
	<-st.waiting

	c := newTestClient(t, s.Addr())
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let the drain flag settle
	_, err := c.Do(context.Background(), []Op{{Code: OpAdd, Struct: 0, Key: 2}})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
	<-inflight
	<-done
}

func TestClientSessionExpired(t *testing.T) {
	leak.CheckCleanup(t)
	s := newTestServer(t, Options{SessionTTL: time.Nanosecond})
	c := newTestClient(t, s.Addr())
	if ok, err := c.SetAdd(context.Background(), 0, 1); err != nil || !ok {
		t.Fatalf("add: %v %v", ok, err)
	}
	// Expire the session behind the client's back. The next request must
	// fail loudly: the exactly-once window is gone and a silent retry could
	// double-apply.
	time.Sleep(time.Millisecond)
	if n := s.sess.sweep(time.Now()); n == 0 {
		t.Fatal("session not swept")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := c.Do(ctx, []Op{{Code: OpAdd, Struct: 0, Key: 2}})
	if !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("want ErrSessionExpired, got %v", err)
	}
}

func TestClientClosed(t *testing.T) {
	leak.CheckCleanup(t)
	s := newTestServer(t, Options{})
	c := newTestClient(t, s.Addr())
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := c.Do(context.Background(), []Op{{Code: OpAdd, Struct: 0, Key: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkClientDoLoopback times one read-only transaction end to end over
// loopback TCP: client encode and write, server read, dispatch and execute,
// response write, client read and parse. One connection, one op.
func BenchmarkClientDoLoopback(b *testing.B) {
	s, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), &ClientOptions{Seed: 1})
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	ops := []Op{{Code: OpContains, Struct: 0, Key: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Do(ctx, ops); err != nil {
			b.Fatalf("do: %v", err)
		}
	}
}
