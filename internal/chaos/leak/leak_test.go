package leak

import (
	"testing"
	"time"
)

// fakeTB records Errorf calls instead of failing the real test.
type fakeTB struct {
	errs []string
}

func (f *fakeTB) Helper()           {}
func (f *fakeTB) Cleanup(fn func()) { fn() }
func (f *fakeTB) Errorf(s string, a ...any) {
	f.errs = append(f.errs, s)
	_ = a
}

func TestNoLeakPasses(t *testing.T) {
	var ft fakeTB
	check := Check(&ft)
	done := make(chan struct{})
	go func() { <-done }()
	close(done) // goroutine exits within the grace period
	check()
	if len(ft.errs) != 0 {
		t.Fatalf("clean test reported %d leaks", len(ft.errs))
	}
}

func TestLeakDetected(t *testing.T) {
	var ft fakeTB
	check := Check(&ft)
	block := make(chan struct{})
	go func() { <-block }() // still parked when check runs
	start := time.Now()
	check()
	close(block)
	if len(ft.errs) == 0 {
		t.Fatal("leaked goroutine not reported")
	}
	// The grace period must actually have been waited out.
	if time.Since(start) < time.Second {
		t.Fatalf("checker gave up after %v, want ~2s grace", time.Since(start))
	}
}

func TestPreexistingGoroutinesIgnored(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	go func() { <-block }() // alive before the snapshot
	var ft fakeTB
	Check(&ft)()
	if len(ft.errs) != 0 {
		t.Fatalf("pre-existing goroutine reported as leak: %v", ft.errs)
	}
}

func TestParseStacksKeysByID(t *testing.T) {
	const stack = "main.worker(...)\n\t/src/main.go:10 +0x1d"
	before := parseStacks("goroutine 7 [runnable]:\n" + stack)
	after := parseStacks("goroutine 7 [chan receive]:\n" + stack +
		"\n\ngoroutine 8 [select]:\n" + stack)
	// Goroutine 7 only changed state; 8 is the one new goroutine.
	_, inBefore := before["7"]
	_, inAfter := after["7"]
	_, newOne := after["8"]
	if len(before) != 1 || len(after) != 2 || !inBefore || !inAfter || !newOne {
		t.Fatalf("parsed before %q, after %q", before, after)
	}
}

func TestInterestingFilters(t *testing.T) {
	if interesting("goroutine 5 [running]:\ntesting.tRunner(...)") {
		t.Error("test runner stack should be ignored")
	}
	if !interesting("goroutine 9 [chan receive]:\nrepro/internal/rtc.(*STM).serve(...)") {
		t.Error("runtime server stack should be interesting")
	}
	if interesting("") {
		t.Error("empty stack should be ignored")
	}
}
