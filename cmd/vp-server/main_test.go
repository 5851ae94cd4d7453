package main

import (
	"net"
	"net/http"
	"strings"
	"testing"
)

// TestHTTPServerTimeouts: the daemon's server must bound how long a
// client may take to send its headers and how long an idle keep-alive
// connection may stay open; the zero value of either means forever. It
// must also cap the header block at 64 KiB and answer a request past
// the cap with 431.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.Handler == nil {
		t.Error("handler not installed")
	}
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", srv.IdleTimeout)
	}
	if srv.MaxHeaderBytes != 64<<10 {
		t.Errorf("MaxHeaderBytes = %d, want %d", srv.MaxHeaderBytes, 64<<10)
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
	get := func(header int) int {
		t.Helper()
		req, err := http.NewRequest("GET", "http://"+ln.Addr().String()+"/", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Pad", strings.Repeat("a", header))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(1 << 10); code != http.StatusNotFound {
		t.Errorf("1 KiB header: status %d, want %d from the handler", code, http.StatusNotFound)
	}
	if code := get(128 << 10); code != http.StatusRequestHeaderFieldsTooLarge {
		t.Errorf("128 KiB header: status %d, want %d", code, http.StatusRequestHeaderFieldsTooLarge)
	}
}
