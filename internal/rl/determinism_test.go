package rl

import (
	"testing"
)

func TestEpisodeSeedStreamsDistinct(t *testing.T) {
	seen := map[int64]int{}
	for seed := int64(1); seed <= 3; seed++ {
		for ep := 0; ep < 200; ep++ {
			s := episodeSeed(seed, ep)
			if prev, dup := seen[s]; dup {
				t.Fatalf("episodeSeed collision: %d (prev entry %d)", s, prev)
			}
			seen[s] = ep
		}
	}
}
