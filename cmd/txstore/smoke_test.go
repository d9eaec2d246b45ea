package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/omtext"
	"repro/internal/trace"
	"repro/internal/txnet"
)

// TestMain lets this test binary double as the txstore binary: when the
// smoke test re-execs itself with TXSTORE_SMOKE_CHILD=1, it runs main()
// with the child's flags instead of the test harness.
func TestMain(m *testing.M) {
	if os.Getenv("TXSTORE_SMOKE_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

var (
	servingRE = regexp.MustCompile(`serving \S+ store on (\S+)`)
	debugRE   = regexp.MustCompile(`debug endpoint on http://(\S+)/debug/trace`)
)

// TestMetricsScrapeSmoke is the CI metrics job run as a test: boot a
// durable txstore with a debug endpoint, commit one traced transaction,
// scrape /metrics, validate the exposition with the vendored OpenMetrics
// parser, and require the families the dashboards depend on — txnet
// sessions and admission, WAL durability, request-latency histograms —
// with at least one trace-id exemplar. Then SIGTERM and expect a clean
// drain.
func TestMetricsScrapeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cmd := exec.CommandContext(ctx, os.Args[0],
		"-addr", "127.0.0.1:0",
		"-debug-addr", "127.0.0.1:0",
		"-wal-dir", t.TempDir(),
		"-fsync", "always",
		"-slow-ms", "0.000001", // everything is slow: exercises the slow log
		"-trace-sample", "1",
	)
	cmd.Env = append(os.Environ(), "TXSTORE_SMOKE_CHILD=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	// The child prints its bound addresses on stderr; scan for both while
	// teeing the rest (the slow-request log lands here too).
	var serveAddr, debugAddr string
	var slowSeen = make(chan string, 1)
	lines := bufio.NewScanner(stderr)
	addrCh := make(chan [2]string, 1)
	go func() {
		var sa, da string
		out := addrCh // nil once sent; addrCh itself stays readable
		for lines.Scan() {
			line := lines.Text()
			if m := servingRE.FindStringSubmatch(line); m != nil {
				sa = m[1]
			}
			if m := debugRE.FindStringSubmatch(line); m != nil {
				da = m[1]
			}
			if sa != "" && da != "" && out != nil {
				out <- [2]string{sa, da}
				out = nil
			}
			if strings.Contains(line, "slow-request") {
				select {
				case slowSeen <- line:
				default:
				}
			}
		}
	}()
	select {
	case got := <-addrCh:
		serveAddr, debugAddr = got[0], got[1]
	case <-time.After(10 * time.Second):
		t.Fatal("child did not announce its addresses")
	}

	// One traced committed transaction: the client draws the sample, the
	// wire carries the trace id, the server's histograms get an exemplar.
	trace.Enable(1)
	defer func() {
		trace.Disable()
		trace.Default.Reset()
	}()
	c, err := txnet.Dial(serveAddr, &txnet.ClientOptions{Seed: 7})
	if err != nil {
		t.Fatalf("dial %s: %v", serveAddr, err)
	}
	var st txnet.Stages
	if _, err := c.DoStages(ctx, []txnet.Op{
		{Code: txnet.OpAdd, Struct: 0, Key: 1},
		{Code: txnet.OpPut, Struct: 1, Key: 1, Val: 2},
	}, &st); err != nil {
		t.Fatalf("commit: %v", err)
	}
	c.Close()
	if st.D[trace.StageFsync] <= 0 {
		t.Fatalf("stage block has no fsync wait: %+v", st.D)
	}

	resp, err := http.Get("http://" + debugAddr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("scrape read: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Fatalf("content type %q", ct)
	}

	fams, err := omtext.Parse(body)
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	want := map[string]float64{
		"txnet_requests_total":           1,
		"txnet_commits_total":            1,
		"txnet_sessions_opened_total":    1,
		"txnet_admission_executed_total": 1,
		"wal_appends_total":              1,
		"wal_fsyncs_total":               1,
	}
	for name, min := range want {
		fam := omtext.Find(fams, strings.TrimSuffix(name, "_total"))
		if fam == nil {
			t.Errorf("family %s missing", name)
			continue
		}
		s := fam.Sample(name, nil)
		if s == nil || s.Value < min {
			t.Errorf("%s = %+v, want >= %v", name, s, min)
		}
	}
	for _, hist := range []string{"txnet_request_duration_seconds", "wal_fsync_duration_seconds"} {
		fam := omtext.Find(fams, hist)
		if fam == nil || fam.Type != "histogram" {
			t.Errorf("histogram %s missing", hist)
			continue
		}
		if s := fam.Sample(hist+"_count", nil); s == nil || s.Value < 1 {
			t.Errorf("%s recorded nothing: %+v", hist, s)
		}
	}
	req := omtext.Find(fams, "txnet_request_duration_seconds")
	exemplar := false
	if req != nil {
		for _, s := range req.Samples {
			if s.Exemplar != nil && len(s.Exemplar.Labels["trace_id"]) == 16 {
				exemplar = true
			}
		}
	}
	if !exemplar {
		t.Errorf("no trace_id exemplar on txnet_request_duration_seconds:\n%s", body)
	}

	select {
	case line := <-slowSeen:
		if !strings.Contains(line, "trace=") {
			t.Errorf("slow-request line lacks trace id: %s", line)
		}
	case <-time.After(2 * time.Second):
		t.Error("no slow-request line on stderr")
	}

	// Graceful drain on SIGTERM.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("child exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("child did not drain after SIGTERM")
	}
}

// startServer runs the txstore child with args and returns its serving
// address; the child is killed at cleanup unless stopServer drained it.
func startServer(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "TXSTORE_SMOKE_CHILD=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	addr := make(chan string, 1)
	go func() {
		lines := bufio.NewScanner(stderr)
		for lines.Scan() {
			if m := servingRE.FindStringSubmatch(lines.Text()); m != nil {
				addr <- m[1]
			}
		}
	}()
	select {
	case a := <-addr:
		return cmd, a
	case <-time.After(10 * time.Second):
		t.Fatalf("txstore %v did not announce its address", args)
		return nil, ""
	}
}

// stopServer sends SIGTERM and requires a clean drain.
func stopServer(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("child exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("child did not drain after SIGTERM")
	}
}

// TestDurableRestartEveryStore boots each -store with -wal-dir, commits a
// set add and a map put, restarts on the same directory and reads both
// back.
func TestDurableRestartEveryStore(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, store := range []string{"otb", "mvotb", "stm"} {
		t.Run(store, func(t *testing.T) {
			args := []string{"-store", store, "-wal-dir", t.TempDir(), "-fsync", "always", "-capacity", "4096"}
			cmd, addr := startServer(t, args...)
			c, err := txnet.Dial(addr, &txnet.ClientOptions{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Do(ctx, []txnet.Op{
				{Code: txnet.OpAdd, Struct: 0, Key: 42},
				{Code: txnet.OpPut, Struct: 1, Key: 7, Val: 9},
			}); err != nil {
				t.Fatalf("commit: %v", err)
			}
			c.Close()
			stopServer(t, cmd)

			cmd, addr = startServer(t, args...)
			c, err = txnet.Dial(addr, &txnet.ClientOptions{Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Do(ctx, []txnet.Op{
				{Code: txnet.OpContains, Struct: 0, Key: 42},
				{Code: txnet.OpGet, Struct: 1, Key: 7},
			})
			if err != nil {
				t.Fatalf("read after restart: %v", err)
			}
			if !res[0].OK || !res[1].OK || res[1].Out != 9 {
				t.Fatalf("state after restart: %+v, want key 42 present and map[7]=9", res)
			}
			c.Close()
			stopServer(t, cmd)
		})
	}
}
