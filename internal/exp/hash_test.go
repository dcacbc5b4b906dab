package exp

import (
	"encoding/json"
	"math/rand"
	"testing"

	"readys/internal/taskgraph"
)

// TestCanonicalHashOrderIndependent proves the property a routing key
// relies on: the hash is a function of the field *set*, not of any insertion
// or declaration order.
func TestCanonicalHashOrderIndependent(t *testing.T) {
	a := map[string]string{}
	a["kind"] = "cholesky"
	a["t"] = "8"
	a["seed"] = "1"
	b := map[string]string{}
	b["seed"] = "1"
	b["kind"] = "cholesky"
	b["t"] = "8"
	if canonicalHash("d", a) != canonicalHash("d", b) {
		t.Fatal("hash depends on map insertion order")
	}
	if canonicalHash("d1", a) == canonicalHash("d2", a) {
		t.Fatal("domain separation lost: different domains hash equal")
	}
	// Length prefixing: key/value boundaries must not alias.
	x := map[string]string{"ab": "c"}
	y := map[string]string{"a": "bc"}
	if canonicalHash("d", x) == canonicalHash("d", y) {
		t.Fatal("field boundaries alias: {ab:c} == {a:bc}")
	}
}

// TestCanonFloatStable proves float formatting cannot change the hash: equal
// float64 values format identically however they were computed, and the
// format round-trips.
func TestCanonFloatStable(t *testing.T) {
	// Runtime arithmetic (not constant-folded): x+y really is
	// 0.30000000000000004, a different float64 from 0.3.
	x, y := 0.1, 0.2
	if canonFloat(0.30000000000000004) != canonFloat(x+y) {
		t.Fatalf("equal floats format differently: %q vs %q",
			canonFloat(0.30000000000000004), canonFloat(x+y))
	}
	two, six, three := 2.0, 6.0, 3.0
	if canonFloat(two) != canonFloat(six/three) {
		t.Fatalf("equal floats format differently: %q vs %q",
			canonFloat(two), canonFloat(six/three))
	}
	if canonFloat(0.3) == canonFloat(x+y) {
		t.Fatal("distinct floats collapsed to one string")
	}
	// Shortest round-trip representation: "0.1", not "0.10000000000000001".
	if got := canonFloat(0.1); got != "0.1" {
		t.Fatalf("canonFloat(0.1) = %q", got)
	}
}

// TestAgentSpecHashDeterministic pins the basic identity properties.
func TestAgentSpecHashDeterministic(t *testing.T) {
	s := DefaultAgentSpec(taskgraph.Cholesky, 8, 2, 2)
	if s.Hash() != s.Hash() {
		t.Fatal("hash not deterministic")
	}
	if len(s.Hash()) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(s.Hash()))
	}
	// A JSON round trip preserves the hash.
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back AgentSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Hash() != s.Hash() {
		t.Fatalf("hash changed across JSON round trip: %s vs %s", back.Hash(), s.Hash())
	}
}

// TestRoutingKeysPinned pins the hashes the gateway routes by to literal
// values: a replica owns a model by rendezvous on AgentSpec.Hash and
// HashBytes, so a change to either moves models between replicas. The
// other tests here compare the hash with itself; this one fails if the
// function changes.
func TestRoutingKeysPinned(t *testing.T) {
	for _, c := range []struct {
		spec AgentSpec
		want string
	}{
		{DefaultAgentSpec(taskgraph.Cholesky, 8, 2, 2), "8a726cffead1a0c2383aadbabc76e98d8bf9a08315ac42a5a1014ef5911cebe1"},
		{DefaultAgentSpec(taskgraph.LU, 4, 2, 2), "49929391c8d3997fe4f6507b07b0a501f0e7f17be72cb9d45e3851083676e8ee"},
		{DefaultAgentSpec(taskgraph.Cholesky, 6, 4, 0), "7eacea1599b1e5dcc2c6f252a1d842ae6e9adc4ef6d230ad73521d510b97534e"},
		{DefaultAgentSpec(taskgraph.QR, 4, 2, 2), "ade0ed55a00dce11b2d9d8c25d23ab0c6e634bc6a88f1789e5087b7fdc49eba7"},
	} {
		if got := c.spec.Hash(); got != c.want {
			t.Errorf("%s: Hash() = %s, want %s", c.spec.Name(), got, c.want)
		}
	}
	const key = "cholesky|http://127.0.0.1:18474"
	if got, want := HashBytes([]byte(key)), "8a3dc0616fe0baa1e86a5f15f81c5476ec9ddd5d96b10acd09ccf8d040d27319"; got != want {
		t.Errorf("HashBytes(%q) = %s, want %s", key, got, want)
	}
}

// randomAgentSpec draws a spec from a small grid large enough that a
// collision sweep is meaningful.
func randomAgentSpec(rng *rand.Rand) AgentSpec {
	kinds := []taskgraph.Kind{taskgraph.Cholesky, taskgraph.LU, taskgraph.QR, taskgraph.Random}
	return AgentSpec{
		Kind:       kinds[rng.Intn(len(kinds))],
		T:          1 + rng.Intn(16),
		NumCPU:     rng.Intn(5),
		NumGPU:     rng.Intn(5),
		SigmaTrain: []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5}[rng.Intn(6)],
		Window:     1 + rng.Intn(4),
		Layers:     1 + rng.Intn(4),
		Hidden:     8 << rng.Intn(4),
		Seed:       int64(rng.Intn(64)),
	}
}

// TestAgentSpecHashNoCollisions sweeps random specs and asserts distinct
// specs never share a hash, while equal specs always do.
func TestAgentSpecHashNoCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := make(map[string]AgentSpec)
	for i := 0; i < 5000; i++ {
		s := randomAgentSpec(rng)
		h := s.Hash()
		if prev, ok := seen[h]; ok && prev != s {
			t.Fatalf("collision: %+v and %+v both hash to %s", prev, s, h)
		}
		seen[h] = s
	}
	if len(seen) < 1000 {
		t.Fatalf("sweep degenerate: only %d distinct specs", len(seen))
	}
}
