package telemetry

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Live endpoint: cmd/dns -listen exposes the standard Go observability
// surface next to the run's telemetry, so a long simulation can be
// inspected without stopping it:
//
//	/debug/pprof/...   net/http/pprof profiles (CPU, heap, goroutines)
//	/debug/vars        expvar (runtime memstats, command line)
//	/telemetry         the current aggregated Report as canonical JSON
//
// The handler never blocks the simulation: snapshots read atomic counters.

// Identity names a process's place in a distributed run, for the
// endpoint's index page: without it, a rank's -listen endpoint looks like
// a whole run instead of one rank of a world.
type Identity struct {
	Rank, World int
	Transport   string
}

// HandlerWithIdentity returns the observability mux: report builds the
// current Report on demand (typically a closure over the run's table name
// and config fingerprint), and the index page at / says which rank of
// which world this process is.
func HandlerWithIdentity(report func() *Report, id Identity) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := report().Encode(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if id.World > 1 {
			fmt.Fprintf(w, "channeldns rank %d of world %d (transport %s)\n", id.Rank, id.World, id.Transport)
			fmt.Fprintf(w, "per-rank view: /telemetry and /trace cover this rank only;\n")
			fmt.Fprintf(w, "rank 0 serves the world view on /metrics and /status.\n\n")
		} else {
			fmt.Fprintf(w, "channeldns run\n\n")
		}
		fmt.Fprint(w, "endpoints:\n  /telemetry\n  /metrics\n  /status\n  /trace\n  /debug/vars\n  /debug/pprof/\n")
	})
	return mux
}

// ServeHandler serves h on addr (e.g. "localhost:6060"; ":0" picks a free
// port) from a background goroutine for the life of the process and
// returns the bound address.
func ServeHandler(addr string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() { _ = http.Serve(ln, h) }()
	return ln.Addr().String(), nil
}
