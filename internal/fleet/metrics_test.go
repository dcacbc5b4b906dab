package fleet

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestPrometheusGoldenExposition pins the exact text exposition of the fleet
// metric set after a fixed synthetic event sequence. The fleet gauges are
// plain event-updated gauges (not GaugeFuncs) precisely so this output is a
// pure function of the event history; any drift in metric names, labels,
// bucket layouts or ordering fails the golden comparison.
func TestPrometheusGoldenExposition(t *testing.T) {
	var sb strings.Builder
	if err := goldenMetrics().reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	want := `# HELP fleet_queue_depth Jobs waiting in the dispatcher queue.
# TYPE fleet_queue_depth gauge
fleet_queue_depth 1
# HELP fleet_jobs_running Jobs currently held under a worker lease.
# TYPE fleet_jobs_running gauge
fleet_jobs_running 0
# HELP fleet_workers_registered Workers currently registered.
# TYPE fleet_workers_registered gauge
fleet_workers_registered 1
# HELP fleet_lease_expirations_total Leases expired after missed heartbeats.
# TYPE fleet_lease_expirations_total counter
fleet_lease_expirations_total 1
# HELP fleet_job_retries_total Jobs requeued after a lease expiry or worker failure.
# TYPE fleet_job_retries_total counter
fleet_job_retries_total 1
# HELP fleet_dedup_hits_total Job submissions answered by an existing job with the same spec hash.
# TYPE fleet_dedup_hits_total counter
fleet_dedup_hits_total 1
# HELP fleet_jobs_submitted_total Jobs accepted into the queue by type.
# TYPE fleet_jobs_submitted_total counter
fleet_jobs_submitted_total{type="eval"} 1
fleet_jobs_submitted_total{type="train"} 1
# HELP fleet_jobs_completed_total Jobs completed by type.
# TYPE fleet_jobs_completed_total counter
fleet_jobs_completed_total{type="train"} 1
# HELP fleet_jobs_failed_total Jobs terminally failed (retry budget spent) by type.
# TYPE fleet_jobs_failed_total counter
fleet_jobs_failed_total{type="eval"} 1
# HELP fleet_job_duration_seconds Wall-clock from first lease to completion by type.
# TYPE fleet_job_duration_seconds histogram
fleet_job_duration_seconds_bucket{type="train",le="0.1"} 0
fleet_job_duration_seconds_bucket{type="train",le="0.5"} 0
fleet_job_duration_seconds_bucket{type="train",le="1"} 0
fleet_job_duration_seconds_bucket{type="train",le="5"} 1
fleet_job_duration_seconds_bucket{type="train",le="15"} 1
fleet_job_duration_seconds_bucket{type="train",le="60"} 1
fleet_job_duration_seconds_bucket{type="train",le="300"} 1
fleet_job_duration_seconds_bucket{type="train",le="900"} 1
fleet_job_duration_seconds_bucket{type="train",le="3600"} 1
fleet_job_duration_seconds_bucket{type="train",le="14400"} 1
fleet_job_duration_seconds_bucket{type="train",le="+Inf"} 1
fleet_job_duration_seconds_sum{type="train"} 2.5
fleet_job_duration_seconds_count{type="train"} 1
# HELP fleet_artifact_bytes_total Bytes accepted into the artifact store.
# TYPE fleet_artifact_bytes_total counter
fleet_artifact_bytes_total 1024
# HELP fleet_wal_compactions_total WAL compaction passes.
# TYPE fleet_wal_compactions_total counter
fleet_wal_compactions_total 1
# HELP fleet_http_requests_total HTTP requests by endpoint.
# TYPE fleet_http_requests_total counter
fleet_http_requests_total{endpoint="complete"} 1
fleet_http_requests_total{endpoint="lease"} 1
# HELP fleet_http_errors_total HTTP responses with status >= 400 by endpoint.
# TYPE fleet_http_errors_total counter
fleet_http_errors_total{endpoint="complete"} 1
fleet_http_errors_total{endpoint="lease"} 0
# HELP fleet_http_latency_ms Request latency in milliseconds by endpoint.
# TYPE fleet_http_latency_ms histogram
fleet_http_latency_ms_bucket{endpoint="complete",le="1"} 0
fleet_http_latency_ms_bucket{endpoint="complete",le="2"} 0
fleet_http_latency_ms_bucket{endpoint="complete",le="5"} 0
fleet_http_latency_ms_bucket{endpoint="complete",le="10"} 0
fleet_http_latency_ms_bucket{endpoint="complete",le="25"} 0
fleet_http_latency_ms_bucket{endpoint="complete",le="50"} 1
fleet_http_latency_ms_bucket{endpoint="complete",le="100"} 1
fleet_http_latency_ms_bucket{endpoint="complete",le="250"} 1
fleet_http_latency_ms_bucket{endpoint="complete",le="500"} 1
fleet_http_latency_ms_bucket{endpoint="complete",le="1000"} 1
fleet_http_latency_ms_bucket{endpoint="complete",le="+Inf"} 1
fleet_http_latency_ms_sum{endpoint="complete"} 40
fleet_http_latency_ms_count{endpoint="complete"} 1
fleet_http_latency_ms_bucket{endpoint="lease",le="1"} 0
fleet_http_latency_ms_bucket{endpoint="lease",le="2"} 0
fleet_http_latency_ms_bucket{endpoint="lease",le="5"} 1
fleet_http_latency_ms_bucket{endpoint="lease",le="10"} 1
fleet_http_latency_ms_bucket{endpoint="lease",le="25"} 1
fleet_http_latency_ms_bucket{endpoint="lease",le="50"} 1
fleet_http_latency_ms_bucket{endpoint="lease",le="100"} 1
fleet_http_latency_ms_bucket{endpoint="lease",le="250"} 1
fleet_http_latency_ms_bucket{endpoint="lease",le="500"} 1
fleet_http_latency_ms_bucket{endpoint="lease",le="1000"} 1
fleet_http_latency_ms_bucket{endpoint="lease",le="+Inf"} 1
fleet_http_latency_ms_sum{endpoint="lease"} 3
fleet_http_latency_ms_count{endpoint="lease"} 1
`
	if got != want {
		t.Fatalf("golden exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s\n--- first diff ---\n%s",
			got, want, firstDiff(got, want))
	}
}

// goldenMetrics is the fixture of the two exposition tests: a fleet metric set
// after a fixed synthetic event sequence.
func goldenMetrics() *Metrics {
	m := NewMetrics()

	// A deterministic history: two submissions (one train, one eval), one
	// dedup hit, one worker registering, one lease (train starts running),
	// a lease expiry + retry, a completion, and two instrumented requests.
	m.submitted.With("train").Inc()
	m.submitted.With("eval").Inc()
	m.queueDepth.Add(2)
	m.dedupHits.Inc()
	m.workers.Set(1)
	m.queueDepth.Add(-1)
	m.runningJobs.Add(1)
	m.leaseExpirations.Inc()
	m.retries.Inc()
	m.runningJobs.Add(-1)
	m.queueDepth.Add(1)
	m.queueDepth.Add(-1)
	m.runningJobs.Add(1)
	m.runningJobs.Add(-1)
	m.completed.With("train").Inc()
	m.duration.With("train").Observe(2.5)
	m.failed.With("eval").Inc()
	m.artifactBytes.Add(1024)
	m.walCompactions.Inc()
	m.ObserveHTTP("lease", 3*time.Millisecond, false)
	m.ObserveHTTP("complete", 40*time.Millisecond, true)
	return m
}

// TestMetricsJSONMatchesExposition holds WriteJSON to WriteText on the golden
// fixture: every sample of the text exposition is in the JSON under its
// family, label value and histogram part, with the same number, and the JSON
// holds no number besides.
func TestMetricsJSONMatchesExposition(t *testing.T) {
	m := goldenMetrics()
	var text, js strings.Builder
	if err := m.reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := m.reg.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}

	var tree map[string]any
	if err := json.Unmarshal([]byte(js.String()), &tree); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]float64)
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case float64:
			got[path] = v
		case map[string]any:
			for k, child := range v {
				walk(path+"/"+k, child)
			}
		default:
			t.Fatalf("%s: %T in the JSON, want numbers and objects only", path, v)
		}
	}
	for family, v := range tree {
		walk(family, v)
	}

	want := make(map[string]float64)
	histograms := make(map[string]bool)
	sample := regexp.MustCompile(`^(\w+?)(_bucket|_sum|_count)?(?:\{\w+="([^"]*)"(?:,le="([^"]*)")?\})? (\S+)$`)
	for _, line := range strings.Split(strings.TrimSpace(text.String()), "\n") {
		if f := strings.Fields(line); f[0] == "#" {
			histograms[f[2]] = f[1] == "TYPE" && f[3] == "histogram"
			continue
		}
		g := sample.FindStringSubmatch(line)
		if g == nil {
			t.Fatalf("unparsed exposition line %q", line)
		}
		path, part := g[1], g[2]
		if !histograms[path] { // e.g. fleet_lease_expirations_total: the suffix is the name's
			path, part = path+part, ""
		}
		if g[3] != "" {
			path += "/" + g[3]
		}
		switch part {
		case "_bucket":
			path += "/buckets/" + g[4]
		case "_sum", "_count":
			path += "/" + part[1:]
		}
		v, err := strconv.ParseFloat(g[5], 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		want[path] = v
	}
	if len(want) == 0 {
		t.Fatal("no sample parsed from the text exposition")
	}
	for path, v := range want {
		if g, ok := got[path]; !ok || g != v {
			t.Errorf("%s: JSON has %v (present %v), text exposition %v", path, g, ok, v)
		}
	}
	for path, g := range got {
		if _, ok := want[path]; !ok {
			t.Errorf("%s: %v in the JSON, not in the text exposition", path, g)
		}
	}
}

// firstDiff pinpoints the first differing line of two multi-line strings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: got %q | want %q", i+1, al[i], bl[i])
		}
	}
	return "length mismatch"
}
