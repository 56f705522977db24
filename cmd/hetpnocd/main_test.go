package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"hetpnoc/internal/serve"
	"hetpnoc/internal/testutil/leakcheck"
)

func TestServerConfigMapping(t *testing.T) {
	got := serverConfig(8, 16, 512, 5_000_000, time.Minute, 3*time.Second)
	want := serve.Config{
		Workers:       8,
		QueueDepth:    16,
		CacheCapacity: 512,
		JobTimeout:    time.Minute,
		MaxCycles:     5_000_000,
		RetryAfter:    3 * time.Second,
	}
	if got != want {
		t.Fatalf("serverConfig = %+v, want %+v", got, want)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	leakcheck.Check(t)
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("undefined flag accepted")
	}
	if err := run([]string{"-workers", "zebra"}); err == nil {
		t.Fatal("malformed flag value accepted")
	}
}

// TestRunDrainsPoolWhenListenFails pins the listener-failure path: when
// ListenAndServe dies before any signal arrives (here, the port is
// already taken), run must still drain the worker pool it started
// instead of leaking the workers into the process.
func TestRunDrainsPoolWhenListenFails(t *testing.T) {
	leakcheck.Check(t)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	if err := run([]string{"-addr", ln.Addr().String(), "-workers", "2", "-queue", "4"}); err == nil {
		t.Fatal("run returned nil while the address was occupied")
	}
}

// TestStalledHeaderIsCut: a client that sends half a request line and
// stalls is disconnected once readHeaderTimeout passes, instead of holding
// a connection goroutine and a file descriptor for ever. Without the
// deadline the read below runs into the test's own, later one.
func TestStalledHeaderIsCut(t *testing.T) {
	leakcheck.Check(t)
	srv := newHTTPServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("server deadlines: header %v, idle %v; want %v and %v", srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/ru")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("the stalled connection was still open after %v: %v", time.Since(start), err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Errorf("the server hung up after %v, well before the %v header deadline", waited, readHeaderTimeout)
	}
}

// TestRunDrainDeadlineBoundsShutdown: on SIGINT the drain deadline bounds
// both halves of the shutdown. A request waiting on a simulation of 2^30
// cycles holds its connection open, so the HTTP shutdown runs out of
// time; the pool's drain, out of time too, cancels the simulation; and
// run returns the deadline's error soon after the deadline instead of
// hours later.
func TestRunDrainDeadlineBoundsShutdown(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() {
		ran <- run([]string{"-addr", addr, "-workers", "1", "-max-cycles", "1073741824", "-job-timeout", "1h", "-drain-timeout", "200ms"})
	}()

	base := "http://" + addr
	replied := make(chan struct{})
	go func() {
		defer close(replied)
		for start := time.Now(); time.Since(start) < 5*time.Second; time.Sleep(10 * time.Millisecond) {
			resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(`{"cycles":1073741824}`))
			if err == nil {
				resp.Body.Close()
				return
			}
		}
	}()
	for start := time.Now(); ; time.Sleep(10 * time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the simulation never started")
		}
		resp, err := http.Get(base + "/metricsz")
		if err != nil {
			continue
		}
		var m serve.Metrics
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err == nil && m.InFlight == 1 {
			break
		}
	}

	// run is waiting for a signal, so it catches this one: the test
	// process lives on.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ran:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("run returned %v, want the drain deadline's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run still draining 10s after a 200ms drain deadline")
	}
	<-replied
}
