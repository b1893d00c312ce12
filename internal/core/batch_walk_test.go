package core

import (
	"testing"

	"interferometry/internal/heap"
	"interferometry/internal/interp"
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
	trace, err := interp.Run(cfg.Program, cfg.InputSeed, cfg.stopRule())
	if err != nil {
		t.Fatal(err)
	}
	build, _, _, harnesses := newSeams(&cfg, 1)
	slots := newBatchSlots(cfg.machineConfig(), harnesses, cfg.Layouts)
	if slots == nil {
		t.Fatal("default machine config is not batchable")
	}
	defer releaseBatchSlots(slots)
	slot := slots[0]
	for i := 0; i < cfg.Layouts; i++ {
		exe, err := buildLayout(&cfg, nil, build, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		slot.specs = append(slot.specs, machine.RunSpec{Exe: exe, Trace: trace, HeapMode: cfg.HeapMode, HeapSeed: cfg.heapSeed(i)})
	}
	walk := func() {
		slot.cache.reset()
		slot.walk(nil)
	}
	walk()
	if len(slot.cache.specs) != cfg.Layouts {
		t.Fatalf("walk primed %d of %d layouts", len(slot.cache.specs), cfg.Layouts)
	}
	if n := testing.AllocsPerRun(5, walk); n != 0 {
		t.Errorf("nil-observer batched walk allocates %v per run, want 0", n)
	}
}
