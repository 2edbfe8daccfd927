package simd

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestOversizeBodyIs413: a JSON body over maxBodyBytes is refused with
// 413 on both decoding routes, without the service reading it all.
func TestOversizeBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"name":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	for _, path := range []string{"/v1/tenants/alice/clusters", "/v1/tenants/alice/jobs"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: %d, want 413", path, len(body), resp.StatusCode)
		}
	}
	// A malformed body within the bound is still a plain 400.
	resp, err := http.Post(ts.URL+"/v1/tenants/alice/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", resp.StatusCode)
	}
}

// TestStalledHeadersClosed: the server NewServer builds carries header
// and idle timeouts, and a connection that never finishes its request
// headers is closed once the header timeout passes. The test shortens
// the timeout on its own server so it runs in well under a second.
func TestStalledHeadersClosed(t *testing.T) {
	s := NewServer(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if s.hs.ReadHeaderTimeout != readHeaderTimeout || s.hs.IdleTimeout != idleTimeout {
		t.Fatalf("http.Server timeouts header=%v idle=%v, want %v and %v",
			s.hs.ReadHeaderTimeout, s.hs.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	s.hs.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	defer func() {
		s.Shutdown(context.Background())
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request: the blank line that ends the headers never comes.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: omxsimd\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %v with unfinished headers", time.Since(start))
	}
}
