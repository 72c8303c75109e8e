// nexus-afsd runs the AFS-like file server that NEXUS volumes (and the
// plain baseline) stack on. It is the untrusted storage service of the
// paper's threat model: it sees only encrypted objects with obfuscated
// names.
//
// Usage:
//
//	nexus-afsd [-addr host:port] [-dir path] [-metrics-addr host:port]
//
// With -dir, objects persist to a local directory; otherwise the server
// is memory-backed. With -metrics-addr, an HTTP endpoint serves
// Prometheus text metrics at /metrics, expvar JSON at /debug/vars, and
// the standard pprof profiles under /debug/pprof/.
//
// Clients mount volumes with Merkle-authenticated freshness (DESIGN.md
// §15); the server needs no cooperation for it — the sealed root and
// the proof tree are ordinary objects.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"

	"nexus/internal/afs"
	"nexus/internal/backend"
	"nexus/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7001", "listen address")
	dir := flag.String("dir", "", "persist objects to this directory (empty = in-memory)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address (empty = disabled)")
	flag.Parse()

	var store backend.Store
	if *dir != "" {
		ds, err := backend.NewDirStore(*dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nexus-afsd: %v\n", err)
			os.Exit(1)
		}
		store = ds
		log.Printf("nexus-afsd: persisting to %s", *dir)
	} else {
		store = backend.NewMemStore()
		log.Printf("nexus-afsd: in-memory store")
	}

	srv := afs.NewServer(store)
	srv.SetLogger(log.Printf)

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		srv.SetObs(reg)
		expvar.Publish("nexus", expvar.Func(reg.ExpvarFunc()))
		go func() {
			if err := http.ListenAndServe(*metricsAddr, observabilityMux(reg)); err != nil {
				log.Printf("nexus-afsd: metrics endpoint: %v", err)
			}
		}()
		log.Printf("nexus-afsd: observability on http://%s/metrics", *metricsAddr)
	}

	if err := srv.ListenAndServe(*addr); err != nil {
		fmt.Fprintf(os.Stderr, "nexus-afsd: %v\n", err)
		os.Exit(1)
	}
}

// observabilityMux assembles the diagnostics endpoint on a private mux:
// the default mux is avoided so importing net/http/pprof cannot leak
// profiles onto any other listener the process might open.
func observabilityMux(reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
