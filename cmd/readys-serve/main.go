// readys-serve is the online scheduling daemon: it keeps trained READYS
// checkpoints resident and answers scheduling requests over a JSON HTTP API.
//
// Usage:
//
//	readys-serve -addr :8080 -models models
//	readys-serve -addr :8080 -workers 8 -queue 128 -timeout 10s
//
// Endpoints:
//
//	POST /v1/schedule   schedule a DAG (generated family or explicit graph)
//	GET  /v1/models     list checkpoints the registry can serve
//	GET  /healthz       liveness probe
//	GET  /metrics       request counters, latency histograms, cache stats,
//	                    decision counters (Prometheus text exposition)
//	GET  /debug/trace   request spans as Chrome trace-event JSON
//	GET  /debug/pprof/  net/http/pprof, with -pprof only
//
// On SIGINT/SIGTERM the daemon stops accepting connections and drains
// queued and in-flight rollouts before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"readys/internal/exp"
	"readys/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		models      = flag.String("models", exp.DefaultModelsDir(), "checkpoint directory")
		workers     = flag.Int("workers", 0, "rollout workers (default: GOMAXPROCS)")
		queue       = flag.Int("queue", 64, "bounded request-queue capacity")
		maxModels   = flag.Int("max-models", 8, "resident checkpoints before LRU eviction")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		drain       = flag.Duration("drain", 30*time.Second, "shutdown drain budget")
		enablePprof = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default)")
		traceEvents = flag.Int("trace-events", 0, "request-span ring capacity for /debug/trace, five spans per schedule request and none per /healthz probe or /metrics scrape (0 = default: 8192 spans, ≈ 185 KiB full and at most 816 KiB, the last ≈ 1 600 schedule requests of any size)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "readys-serve: ", log.LstdFlags)

	if info, err := os.Stat(*models); err != nil {
		logger.Fatalf("model directory %s: %v", *models, err)
	} else if !info.IsDir() {
		logger.Fatalf("model directory %s: not a directory", *models)
	}

	srv := serve.New(serve.Config{
		ModelsDir:      *models,
		Workers:        *workers,
		Queue:          *queue,
		MaxModels:      *maxModels,
		RequestTimeout: *timeout,
		Logger:         logger,
		EnablePprof:    *enablePprof,
		TraceEvents:    *traceEvents,
	})
	if *enablePprof {
		logger.Print("pprof enabled at /debug/pprof/")
	}
	if infos, err := srv.Registry().List(); err != nil {
		logger.Fatalf("scanning %s: %v", *models, err)
	} else {
		logger.Printf("serving %d checkpoints from %s", len(infos), *models)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	done := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		logger.Printf("received %s, draining (budget %s)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Stop accepting connections first, then drain the rollout pool so
		// every accepted request is answered before exit.
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Printf("http shutdown: %v", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			logger.Printf("pool drain: %v", err)
		}
		close(done)
	}()

	logger.Printf("listening on %s", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	<-done
	logger.Print("drained, bye")
}
