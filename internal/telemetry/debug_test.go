package telemetry

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// TestServeDebug exercises the one debug surface dasbench -http and
// dasserve -debug share: pprof answers, nothing else does, and the
// graceful-shutdown path really closes the listener and tolerates a
// repeat call (dasbench defers one after its signal path may have run).
func TestServeDebug(t *testing.T) {
	srv, addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]int{
		"/debug/pprof/":        http.StatusOK,
		"/debug/pprof/cmdline": http.StatusOK,
		"/metrics":             http.StatusNotFound,
		"/debug/vars":          http.StatusNotFound,
		"/":                    http.StatusNotFound,
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("%s: live server unreachable: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s -> %d, want %d", path, resp.StatusCode, want)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// A fresh client: the default transport's pooled keep-alive
	// connection would otherwise mask whether the listener is gone.
	client := &http.Client{Transport: &http.Transport{}}
	if _, err := client.Get("http://" + addr + "/debug/pprof/"); err == nil {
		t.Fatal("server still answering after Shutdown")
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if _, _, err := ServeDebug("256.0.0.1:0"); err == nil {
		t.Fatal("bad address accepted")
	}
}
