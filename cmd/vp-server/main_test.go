package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts: the daemon's server must bound how long a
// client may take to send its headers and how long an idle keep-alive
// connection may stay open; the zero value of either means forever.
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
}
