package core

import (
	"fmt"
	"testing"

	"interferometry/internal/heap"
)

// TestSeedStreamsDisjoint pins the fix for the seed-derivation footgun:
// the three per-layout streams (layout, heap, noise) must never collide
// with each other, and the heap and noise streams must never produce 0 —
// heap seed 0 is the "no randomization" sentinel in recorded
// observations, so a derived 0 would silently disable randomization for
// one layout.
func TestSeedStreamsDisjoint(t *testing.T) {
	const indices = 10000
	for _, base := range []uint64{0, 1, 7, 0x1f2e3d4c, ^uint64(0)} {
		cfg := &CampaignConfig{BaseSeed: base, HeapMode: heap.ModeRandomized}
		seen := make(map[uint64]string, 3*indices)
		for i := 0; i < indices; i++ {
			id := LayoutUnit(i).runID(cfg)
			for _, s := range []struct {
				name string
				seed uint64
			}{
				{"layout", id.LayoutSeed},
				{"heap", id.HeapSeed},
				{"noise", id.NoiseSeed},
			} {
				if s.name != "layout" && s.seed == 0 {
					t.Fatalf("base %#x: %s seed 0 at index %d — zero must never reach the randomizer", base, s.name, i)
				}
				who := fmt.Sprintf("%s[%d]", s.name, i)
				if prev, dup := seen[s.seed]; dup {
					t.Fatalf("base %#x: seed %#x produced by both %s and %s", base, s.seed, prev, who)
				}
				seen[s.seed] = who
			}
		}
	}
}

// TestSeedStreamsExtendConsistent pins the property Extend depends on:
// offsetting FirstLayout shifts the streams, it does not reseed them.
func TestSeedStreamsExtendConsistent(t *testing.T) {
	a := &CampaignConfig{BaseSeed: 99, HeapMode: heap.ModeRandomized}
	b := &CampaignConfig{BaseSeed: 99, HeapMode: heap.ModeRandomized, FirstLayout: 40}
	for i := 0; i < 100; i++ {
		if x, y := LayoutUnit(40+i).runID(a), LayoutUnit(i).runID(b); x != y {
			t.Fatalf("streams break at offset %d: %+v vs %+v", i, x, y)
		}
	}
}
