package main

import (
	"io"
	"net"
	"net/http"
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
