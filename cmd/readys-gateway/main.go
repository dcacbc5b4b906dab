// readys-gateway fronts N readys-serve replicas behind one endpoint: it
// routes each schedule request to the replica that owns its model
// (rendezvous hashing on the canonical model-spec hash), health-checks the
// replicas and fails requests over transparently when a replica dies.
//
// Usage:
//
//	readys-gateway -addr :8090 -replicas http://127.0.0.1:8081,http://127.0.0.1:8082
//
// Endpoints:
//
//	POST /v1/schedule   route a scheduling request to its owning replica
//	GET  /v1/models     proxy the model listing from a healthy replica
//	GET  /healthz       gateway liveness + per-replica health
//	GET  /metrics       routing counters, per-replica health, failovers
//	                    (Prometheus text exposition)
//	GET  /debug/trace   gateway request/forward spans as Chrome trace JSON
package main

import (
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"readys/internal/gateway"
)

func main() {
	var (
		addr           = flag.String("addr", ":8090", "listen address")
		replicas       = flag.String("replicas", "", "comma-separated readys-serve base URLs (required)")
		healthInterval = flag.Duration("health-interval", 0, "replica /healthz probe period (0 = default)")
		retries        = flag.Int("retries", 0, "failover attempts after the first forward fails (0 = default)")
		timeout        = flag.Duration("timeout", 0, "per-request deadline across all failover attempts (0 = default)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "readys-gateway: ", log.LstdFlags)

	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		logger.Fatal("at least one replica is required: -replicas http://host:port[,...]")
	}
	gw, err := gateway.New(gateway.Config{
		Replicas:       urls,
		HealthInterval: *healthInterval,
		Retries:        *retries,
		RequestTimeout: *timeout,
		Logger:         logger,
	})
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("fronting %d replicas", len(urls))

	httpSrv := &http.Server{Addr: *addr, Handler: gw.Handler()}
	done := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		logger.Printf("received %s, shutting down", sig)
		if err := httpSrv.Close(); err != nil {
			logger.Printf("http close: %v", err)
		}
		gw.Close()
		close(done)
	}()

	logger.Printf("listening on %s", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	<-done
}
