// readys-fleet is the fleet dispatcher daemon: it owns the durable job queue
// (a JSONL write-ahead log replayed on restart), the lease table, and the
// content-addressed artifact store, and serves the fleet HTTP API that
// readys-worker daemons pull jobs from.
//
// Usage:
//
//	readys-fleet -addr :9090 -dir fleet
//	readys-fleet -addr :9090 -dir fleet -publish models      # train → serve loop
//	readys-fleet -grid -dispatcher http://host:9090          # submit the paper grid
//	readys-fleet -smoke                                      # in-process end-to-end check
//
// Endpoints:
//
//	POST /v1/jobs             submit a job (deduped by canonical spec hash)
//	GET  /v1/jobs[/{id}]      inspect the queue
//	POST /v1/workers/register, /v1/workers/deregister
//	POST /v1/lease            pull a job under a time-bounded lease
//	POST /v1/heartbeat        extend the lease, stream training progress
//	POST /v1/complete         finish a job (artifacts already uploaded)
//	POST /v1/fail             report a worker-side failure (requeue + backoff)
//	PUT  /v1/artifacts        upload a blob (content-addressed by SHA-256)
//	GET  /v1/artifacts/{digest}
//	GET  /healthz, /metrics (?format=prometheus), /debug/trace
//
// On SIGINT/SIGTERM the daemon stops accepting connections and closes the
// WAL; running workers requeue via lease expiry on the next start.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"readys/internal/fleet"
)

func main() {
	var (
		addr       = flag.String("addr", ":9090", "listen address")
		dir        = flag.String("dir", "fleet", "dispatcher state directory (WAL + artifacts)")
		leaseTTL   = flag.Duration("lease-ttl", 30*time.Second, "lease duration a worker must heartbeat within")
		maxRetries = flag.Int("max-attempts", 3, "lease grants per job before it fails terminally")
		backoff    = flag.Duration("retry-backoff", 2*time.Second, "base requeue delay (doubles per attempt)")
		publish    = flag.String("publish", "", "publish completed training checkpoints into this model directory (the directory readys-serve loads from)")
		grid       = flag.Bool("grid", false, "submit the full paper grid to -dispatcher and exit")
		dispatcher = flag.String("dispatcher", "http://127.0.0.1:9090", "dispatcher URL for -grid")
		smoke      = flag.Bool("smoke", false, "run an in-process dispatcher + worker end-to-end check and exit")
		traceEvs   = flag.Int("trace-events", 0, "request-span ring capacity for /debug/trace (0 = default: 65536 spans in 6 MiB)")
		traceOut   = flag.String("trace-out", "", "with -smoke: write dispatcher.json, worker.json and the stitched merged-trace.json into this directory")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "readys-fleet: ", log.LstdFlags)

	if *smoke {
		if err := runSmoke(logger, *traceOut); err != nil {
			logger.Fatal(err)
		}
		return
	}
	if *grid {
		submitGrid(logger, *dispatcher)
		return
	}

	cfg := fleet.DefaultConfig()
	cfg.WALPath = filepath.Join(*dir, "queue.wal")
	cfg.ArtifactsDir = filepath.Join(*dir, "artifacts")
	cfg.LeaseTTL = *leaseTTL
	cfg.MaxAttempts = *maxRetries
	cfg.RetryBackoff = *backoff
	cfg.Logger = logger
	cfg.TraceEvents = *traceEvs
	if *publish != "" {
		cfg.Publisher = fleet.DirPublisher{Dir: *publish}
	}

	d, err := fleet.NewDispatcher(cfg)
	if err != nil {
		logger.Fatal(err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: d.Handler()}

	done := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		logger.Printf("received %s, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Printf("http shutdown: %v", err)
		}
		if err := d.Close(); err != nil {
			logger.Printf("closing dispatcher: %v", err)
		}
		close(done)
	}()

	logger.Printf("dispatching on %s (WAL %s, lease TTL %s)", *addr, cfg.WALPath, cfg.LeaseTTL)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	<-done
	logger.Print("queue persisted, bye")
}

// submitGrid posts the full paper grid and reports the dedup split.
func submitGrid(logger *log.Logger, url string) {
	client := fleet.NewClient(url)
	var fresh, deduped int
	for _, spec := range fleet.PaperGrid() {
		job, wasDup, err := client.Submit(spec)
		if err != nil {
			logger.Fatalf("submitting %s job: %v", spec.Type, err)
		}
		if wasDup {
			deduped++
		} else {
			fresh++
		}
		logger.Printf("%s %s (deduped=%v)", job.ID, spec.Type, wasDup)
	}
	logger.Printf("grid submitted: %d new jobs, %d deduplicated", fresh, deduped)
}
