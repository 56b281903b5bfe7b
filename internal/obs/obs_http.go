package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// NewMux builds the observability HTTP surface for one registry:
//
//	/metrics       Prometheus text exposition (0.0.4)
//	/metrics.json  flat JSON view of the same series
//	/debug/pprof/  the standard runtime profiles
//
// The mux holds the only reference it makes to the registry: nothing
// is published process-wide, so a runtime whose handler is dropped can
// be collected.
func NewMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/metrics.json", reg.JSONHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr and serves NewMux(reg) in a background goroutine.
// Close the returned listener to stop serving; the caller owns its
// lifetime. Scraping renders under the registry's collectors, so the
// owner must not hold locks those collectors take while closing.
func Serve(addr string, reg *Registry) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewMux(reg)}
	go srv.Serve(ln)
	return ln, nil
}
