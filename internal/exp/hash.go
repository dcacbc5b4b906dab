package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
)

// This file defines the canonical spec hashing the gateway routes by: a
// replica owns a model by rendezvous hashing of its AgentSpec.Hash against
// the replica's URL (HashBytes), so every gateway process must compute the
// same keys. The hash must be stable across processes, Go versions and code
// refactors, so it is NOT derived from any struct encoding (field order would
// leak in): a spec explicitly lists its fields as strings, the fields are
// sorted by name, floats are formatted with strconv's shortest round-trip
// representation, and the result is the SHA-256 of the sorted key=value lines
// under a versioned domain prefix. TestRoutingKeysPinned holds the values.

// canonicalHash hashes a field map deterministically: the domain string
// separates spec kinds (a hash under one domain never collides with another
// domain's of coincidentally equal fields), keys are sorted so insertion
// order is irrelevant, and keys/values are length-prefixed so no
// concatenation of values can alias another ("ab"+"c" vs "a"+"bc").
func canonicalHash(domain string, fields map[string]string) string {
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	fmt.Fprintf(h, "%d:%s", len(domain), domain)
	for _, k := range keys {
		v := fields[k]
		fmt.Fprintf(h, "%d:%s%d:%s", len(k), k, len(v), v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// canonFloat formats a float canonically: the shortest representation that
// round-trips through a float64. Equal floats always produce equal strings,
// regardless of how the value was computed or previously printed.
func canonFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Hash returns the canonical SHA-256 identity of the spec, hex-encoded. Two
// specs hash equal iff every field is equal; the encoding is independent of
// struct field order and of float formatting at call sites.
func (s AgentSpec) Hash() string {
	return canonicalHash("readys/agent-spec/v1", s.hashFields())
}

func (s AgentSpec) hashFields() map[string]string {
	return map[string]string{
		"kind":        s.Kind.String(),
		"t":           strconv.Itoa(s.T),
		"cpus":        strconv.Itoa(s.NumCPU),
		"gpus":        strconv.Itoa(s.NumGPU),
		"sigma_train": canonFloat(s.SigmaTrain),
		"window":      strconv.Itoa(s.Window),
		"layers":      strconv.Itoa(s.Layers),
		"hidden":      strconv.Itoa(s.Hidden),
		"seed":        strconv.FormatInt(s.Seed, 10),
	}
}

// HashBytes is the hex SHA-256 of a byte slice. The gateway scores a
// replica for a model by HashBytes of the model's key and the replica's URL,
// and routes to the highest score.
func HashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
