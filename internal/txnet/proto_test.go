package txnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// frameOf frames an encoded payload for tests that build payloads alone.
func frameOf(payload []byte) []byte {
	return sealFrame(append(newFrame(nil), payload...))
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello frame")
	got, err := readFrame(bytes.NewReader(frameOf(payload)), nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame round-trip: got %q want %q", got, payload)
	}
}

// TestEncodedFramesRoundTrip builds every request and response frame the
// way the client and server do — prefix reserved, payload appended, length
// patched in — and checks each carries its payload's length and decodes
// through readFrame and its parser.
func TestEncodedFramesRoundTrip(t *testing.T) {
	read := func(t *testing.T, f []byte) []byte {
		t.Helper()
		if n := binary.BigEndian.Uint32(f); int(n) != len(f)-frameHdr {
			t.Fatalf("prefix %d, payload %d bytes", n, len(f)-frameHdr)
		}
		// A trailing byte checks the prefix bounds the frame exactly.
		buf := bytes.NewBuffer(append(append([]byte{}, f...), 0xEE))
		p, err := readFrame(buf, nil)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if buf.Len() != 1 {
			t.Fatalf("readFrame left %d bytes, want 1", buf.Len())
		}
		return p
	}
	// One reused buffer, as the client and server keep, with leftovers
	// from a longer frame in it.
	b := bytes.Repeat([]byte{0xAB}, 64)

	t.Run("hello", func(t *testing.T) {
		b = sealFrame(appendHello(newFrame(b), 77))
		if p := read(t, b); len(p) != 9 || p[0] != msgHello || be64(p[1:]) != 77 {
			t.Fatalf("hello payload % x", p)
		}
	})
	t.Run("bye", func(t *testing.T) {
		b = sealFrame(appendBye(newFrame(b), 78))
		if p := read(t, b); len(p) != 9 || p[0] != msgBye || be64(p[1:]) != 78 {
			t.Fatalf("bye payload % x", p)
		}
	})
	for _, n := range []int{0, 1, maxOps} {
		t.Run(fmt.Sprintf("txn-%d-ops", n), func(t *testing.T) {
			ops := make([]Op, n)
			for i := range ops {
				ops[i] = Op{Code: OpCode(i % int(numOpCodes)), Struct: uint32(i % 3), Key: int64(i) - 5, Val: uint64(i) * 3}
			}
			b = sealFrame(appendTxn(newFrame(b), 9, 10, time.Second, 11, 12, flagStages, ops))
			req, _, err := parseTxn(read(t, b), nil)
			if err != nil {
				t.Fatalf("parseTxn: %v", err)
			}
			if req.session != 9 || req.seq != 10 || req.traceID != 11 || len(req.ops) != n {
				t.Fatalf("txn: %+v", req)
			}
			for i := range ops {
				if req.ops[i] != ops[i] {
					t.Fatalf("op %d: got %+v want %+v", i, req.ops[i], ops[i])
				}
			}
		})
	}

	var stages [trace.NumStages]int64
	stages[trace.StageExecute] = 1234
	results := []OpResult{{Out: 5, OK: true}, {}}
	resps := []struct {
		name   string
		encode func([]byte) []byte
		want   response
	}{
		{"ok", func(b []byte) []byte { return appendOKResp(b, 3, results, nil) },
			response{status: StatusOK, seq: 3, results: results}},
		{"ok-stages", func(b []byte) []byte { return appendOKResp(b, 3, results, &stages) },
			response{status: StatusOK, seq: 3, results: results, stages: stages, hasStages: true}},
		{"aborted", func(b []byte) []byte { return appendErrResp(b, StatusAborted, 4, 0, "conflict") },
			response{status: StatusAborted, seq: 4, msg: "conflict"}},
		{"deadline", func(b []byte) []byte { return appendErrResp(b, StatusDeadline, 5, 0, "") },
			response{status: StatusDeadline, seq: 5}},
		{"overloaded", func(b []byte) []byte { return appendErrResp(b, StatusOverloaded, 6, 3*time.Millisecond, "") },
			response{status: StatusOverloaded, seq: 6, retryAfter: 3 * time.Millisecond}},
		{"bad-request", func(b []byte) []byte { return appendErrResp(b, StatusBadRequest, 7, 0, "unknown session") },
			response{status: StatusBadRequest, seq: 7, msg: "unknown session"}},
		{"shutdown", func(b []byte) []byte { return appendErrResp(b, StatusShutdown, 8, 0, "") },
			response{status: StatusShutdown, seq: 8}},
		{"hello", func(b []byte) []byte { return appendHelloResp(b, 55, 9) },
			response{status: StatusHello, sessionID: 55, lastSeq: 9}},
		{"bye", appendByeResp, response{status: StatusBye}},
	}
	for _, c := range resps {
		t.Run("resp-"+c.name, func(t *testing.T) {
			b = sealFrame(c.encode(newFrame(b)))
			r, err := parseResponse(read(t, b))
			if err != nil {
				t.Fatalf("parseResponse: %v", err)
			}
			if !reflect.DeepEqual(r, c.want) {
				t.Fatalf("got %+v\nwant %+v", r, c.want)
			}
		})
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&buf, nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestTxnRoundTrip(t *testing.T) {
	ops := []Op{
		{Code: OpAdd, Struct: 0, Key: -42},
		{Code: OpPut, Struct: 1, Key: 7, Val: 1<<63 + 9},
		{Code: OpRemoveMin, Struct: 2},
	}
	b := appendTxn(nil, 17, 99, 1500*time.Millisecond, 0xabcdef0123456789, 0x42, flagResend|flagStages, ops)
	req, _, err := parseTxn(b, nil)
	if err != nil {
		t.Fatalf("parseTxn: %v", err)
	}
	if req.session != 17 || req.seq != 99 {
		t.Fatalf("session/seq: got %d/%d want 17/99", req.session, req.seq)
	}
	if req.deadline != 1500*time.Millisecond {
		t.Fatalf("deadline: got %v", req.deadline)
	}
	if req.traceID != 0xabcdef0123456789 || req.parent != 0x42 {
		t.Fatalf("trace context: got %x/%x", req.traceID, req.parent)
	}
	if req.flags != flagResend|flagStages {
		t.Fatalf("flags: got %x", req.flags)
	}
	if len(req.ops) != len(ops) {
		t.Fatalf("ops: got %d want %d", len(req.ops), len(ops))
	}
	for i := range ops {
		if req.ops[i] != ops[i] {
			t.Fatalf("op %d: got %+v want %+v", i, req.ops[i], ops[i])
		}
	}
}

func TestTxnReusesOpsBuffer(t *testing.T) {
	scratch := make([]Op, 0, 8)
	b := appendTxn(nil, 1, 1, 0, 0, 0, 0, []Op{{Code: OpContains, Key: 5}})
	_, ops, err := parseTxn(b, scratch)
	if err != nil {
		t.Fatalf("parseTxn: %v", err)
	}
	if cap(ops) != cap(scratch) {
		t.Fatalf("ops buffer not reused: cap %d want %d", cap(ops), cap(scratch))
	}
}

func TestTxnMalformed(t *testing.T) {
	good := appendTxn(nil, 1, 1, 0, 0, 0, 0, []Op{{Code: OpAdd, Key: 1}})
	cases := map[string][]byte{
		"empty":      {},
		"wrong type": append([]byte{msgHello}, good[1:]...),
		"truncated":  good[:len(good)-3],
		"extra":      append(append([]byte{}, good...), 0xAA),
	}
	for name, p := range cases {
		if _, _, err := parseTxn(p, nil); err == nil {
			t.Errorf("%s payload accepted", name)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	b := appendHello(nil, 1234)
	if b[0] != msgHello || be64(b[1:]) != 1234 {
		t.Fatalf("hello request encoding: % x", b)
	}
	r, err := parseResponse(appendHelloResp(nil, 55, 9))
	if err != nil {
		t.Fatalf("parse hello resp: %v", err)
	}
	if r.status != StatusHello || r.sessionID != 55 || r.lastSeq != 9 {
		t.Fatalf("hello resp: %+v", r)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	results := []OpResult{{Out: 7, OK: true}, {Out: 0, OK: false}}
	r, err := parseResponse(appendOKResp(nil, 42, results, nil))
	if err != nil {
		t.Fatalf("parse ok: %v", err)
	}
	if r.status != StatusOK || r.seq != 42 || len(r.results) != 2 {
		t.Fatalf("ok resp: %+v", r)
	}
	if r.results[0] != results[0] || r.results[1] != results[1] {
		t.Fatalf("results: %+v", r.results)
	}

	r, err = parseResponse(appendErrResp(nil, StatusOverloaded, 3, 7*time.Millisecond, ""))
	if err != nil {
		t.Fatalf("parse overloaded: %v", err)
	}
	if r.status != StatusOverloaded || r.seq != 3 || r.retryAfter != 7*time.Millisecond {
		t.Fatalf("overloaded resp: %+v", r)
	}

	r, err = parseResponse(appendErrResp(nil, StatusAborted, 4, 0, "conflict on key 9"))
	if err != nil {
		t.Fatalf("parse aborted: %v", err)
	}
	if r.status != StatusAborted || r.msg != "conflict on key 9" {
		t.Fatalf("aborted resp: %+v", r)
	}

	for _, st := range []Status{StatusDeadline, StatusShutdown} {
		r, err = parseResponse(appendErrResp(nil, st, 5, 0, ""))
		if err != nil {
			t.Fatalf("parse %s: %v", st, err)
		}
		if r.status != st || r.seq != 5 {
			t.Fatalf("%s resp: %+v", st, r)
		}
	}
}

func TestResponseMalformed(t *testing.T) {
	ok := appendOKResp(nil, 1, []OpResult{{OK: true}}, nil)
	cases := map[string][]byte{
		"empty":          {},
		"short ok":       ok[:5],
		"ok extra":       append(append([]byte{}, ok...), 1),
		"unknown status": {200, 0, 0, 0, 0, 0, 0, 0, 1},
		"deadline body":  append(appendErrResp(nil, StatusDeadline, 1, 0, ""), 9),
	}
	for name, p := range cases {
		if _, err := parseResponse(p); err == nil {
			t.Errorf("%s response accepted", name)
		}
	}
}

func TestClampMillis(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want uint32
	}{
		{0, 0},
		{-time.Second, 0},
		{time.Microsecond, 1}, // rounds up: a positive budget must stay a deadline
		{time.Millisecond, 1},
		{1500 * time.Microsecond, 2},
		{time.Hour * 24 * 365 * 200, 1<<32 - 1},
	}
	for _, c := range cases {
		if got := clampMillis(c.in); got != c.want {
			t.Errorf("clampMillis(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestStatusAndOpStrings(t *testing.T) {
	for st := StatusOK; st <= StatusHello; st++ {
		if strings.HasPrefix(st.String(), "status(") {
			t.Errorf("status %d has no name", byte(st))
		}
	}
	for c := OpAdd; c < numOpCodes; c++ {
		if strings.HasPrefix(c.String(), "op(") {
			t.Errorf("opcode %d has no name", uint8(c))
		}
	}
}
