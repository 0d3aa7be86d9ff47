package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// ServeDebug serves live profiling (/debug/pprof) on addr until the
// returned server is shut down. It returns the bound address (useful
// with ":0") or an error if the listener cannot be created; serving
// errors after that are dropped, matching net/http debug-endpoint
// convention. Metrics are not served here: dasserve's Prometheus
// /metrics and dasbench's file sinks are the metrics surfaces.
func ServeDebug(addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("telemetry: debug listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
