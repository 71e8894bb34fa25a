package simfarm

import (
	"slices"
	"strconv"
	"testing"
)

// FuzzLRU drives getOrCompute with probe sequences taken from the fuzz
// input and checks every step against a model: a map of cached values
// plus a recency slice, least recently used first. The first byte picks
// the capacity (1–4); each later byte probes one of eight keys, and a
// compute returns the probe's index, so a value that outlived its
// eviction would show as a stale index.
func FuzzLRU(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 2, 1, 3})
	f.Add([]byte{0, 0, 0, 1, 1, 0})
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 0, 6, 7, 1, 2, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		capacity := int(in[0]%4) + 1
		c := newLRU(capacity)
		model := map[string]int{}
		var recency []string
		var hits, misses, evictions uint64
		for probe, b := range in[1:] {
			key := strconv.Itoa(int(b % 8))
			computed := false
			got := c.getOrCompute(key, func() any { computed = true; return probe })

			want, cached := model[key]
			if cached {
				hits++
				recency = slices.DeleteFunc(recency, func(k string) bool { return k == key })
			} else {
				misses++
				want = probe
				model[key] = probe
				if len(recency) == capacity {
					delete(model, recency[0])
					recency = recency[1:]
					evictions++
				}
			}
			recency = append(recency, key)

			if computed == cached {
				t.Fatalf("probe %d of %q: computed=%v, want %v", probe, key, computed, !cached)
			}
			if got != want {
				t.Fatalf("probe %d of %q: got %v, want %d", probe, key, got, want)
			}
			var order []string
			for el := c.ll.Back(); el != nil; el = el.Prev() {
				order = append(order, el.Value.(*entry).key)
			}
			if !slices.Equal(order, recency) {
				t.Fatalf("probe %d: recency %v, want %v", probe, order, recency)
			}
			s := c.snapshot()
			if s.Len > capacity || s.Len != len(recency) {
				t.Fatalf("probe %d: Len %d, want %d (cap %d)", probe, s.Len, len(recency), capacity)
			}
			if s.Hits != hits || s.Misses != misses || s.Evictions != evictions {
				t.Fatalf("probe %d: %+v, want hits=%d misses=%d evictions=%d", probe, s, hits, misses, evictions)
			}
			if s.Hits+s.Misses != uint64(probe+1) || s.Computes != s.Misses {
				t.Fatalf("probe %d: %+v after %d probes", probe, s, probe+1)
			}
		}
	})
}
