package main

import "testing"

// TestSmoke runs all four workloads, both passes, at tiny op counts: every
// output check and every metric's plumbing, in a few seconds.
func TestSmoke(t *testing.T) {
	cfg := runConfig{root: "..", outDir: t.TempDir(), seed: 1, seconds: 1, smoke: true, ports: replicaPortPairs}
	if err := runSmoke(cfg); err != nil {
		t.Fatal(err)
	}
}
