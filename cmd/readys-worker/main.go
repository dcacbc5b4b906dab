// readys-worker is the fleet's execution daemon: it registers with a
// readys-fleet dispatcher, pulls jobs (training runs, evaluation sweeps,
// figure regeneration) under a heartbeated lease, streams per-episode
// progress, and uploads artifacts back to the dispatcher's content-addressed
// store.
//
// Usage:
//
//	readys-worker -dispatcher http://host:9090
//	readys-worker -dispatcher http://host:9090 -name gpu-box-3 -models /shared/models
//
// On SIGINT/SIGTERM the worker drains: the in-flight job runs to completion,
// its artifacts are uploaded and the job completed, then the worker
// deregisters (mirroring readys-serve's drain).
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"readys/internal/fleet"
)

func main() {
	var (
		dispatcher = flag.String("dispatcher", "http://127.0.0.1:9090", "dispatcher URL")
		name       = flag.String("name", "", "worker name (default: hostname)")
		poll       = flag.Duration("poll", 500*time.Millisecond, "idle wait between lease attempts")
		models     = flag.String("models", "fleet-models", "local checkpoint cache (shared with other workers when on a shared filesystem)")
		workers    = flag.Int("workers", 0, "concurrent episode rollouts per training batch, beside the update, which takes each episode as soon as it is in (0 = GOMAXPROCS); results are identical at any value")
		traceOut   = flag.String("trace-out", "", "write the worker's execution spans as Chrome trace-event JSON here on shutdown (merge with the dispatcher's /debug/trace via readys-obs-check -merge)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "readys-worker: ", log.LstdFlags)

	w := fleet.NewWorker(fleet.WorkerConfig{
		Dispatcher:     *dispatcher,
		Name:           *name,
		PollInterval:   *poll,
		ModelsDir:      *models,
		RolloutWorkers: *workers,
		Logger:         logger,
	})

	ctx, cancel := context.WithCancel(context.Background())
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		logger.Printf("received %s, draining: finishing the in-flight job before exit", sig)
		cancel()
	}()

	if err := w.Run(ctx); err != nil {
		logger.Fatal(err)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			logger.Fatal(err)
		}
		if err := w.WriteTrace(f); err != nil {
			f.Close()
			logger.Fatal(err)
		}
		if err := f.Close(); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("wrote %s", *traceOut)
	}
	logger.Print("drained, bye")
}
