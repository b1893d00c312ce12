package core

import (
	"testing"

	"interferometry/internal/heap"
	"interferometry/internal/machine"
	"interferometry/internal/testprog"
)

// TestBatchWalkNilObserverAllocs pins the unobserved cost of phase B: on
// a warm slot, a batched walk with its panic guard and fallback
// accounting allocates nothing when the campaign has no observer.
func TestBatchWalkNilObserverAllocs(t *testing.T) {
	cfg := CampaignConfig{
		Program:   testprog.ManyBranches(200, 400),
		InputSeed: 1,
		Budget:    120000,
		Layouts:   4,
		BaseSeed:  7,
		HeapMode:  heap.ModeRandomized,
	}
	r, err := NewLayoutRunner(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.release()
	slot := r.slots[0]
	if err := slot.engine(cfg.machineConfig(), cfg.Layouts); err != nil {
		t.Fatalf("default machine config is not batchable: %v", err)
	}
	for i := 0; i < cfg.Layouts; i++ {
		u := LayoutUnit(i)
		exe, err := r.Build(u)
		if err != nil {
			t.Fatal(err)
		}
		slot.specs = append(slot.specs, machine.RunSpec{Exe: exe, Trace: r.trace, HeapMode: cfg.HeapMode, HeapSeed: u.heapSeed(&cfg)})
	}
	walk := func() {
		slot.cache.reset()
		slot.walk(nil, 0, 0)
	}
	walk()
	if len(slot.cache.specs) != cfg.Layouts {
		t.Fatalf("walk primed %d of %d layouts", len(slot.cache.specs), cfg.Layouts)
	}
	if n := testing.AllocsPerRun(5, walk); n != 0 {
		t.Errorf("nil-observer batched walk allocates %v per run, want 0", n)
	}
}
