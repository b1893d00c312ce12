package interp

import (
	"slices"

	"interferometry/internal/isa"
)

// Facts are the layout-independent repeat facts of a trace: which blocks
// it executes and how often, and which memory accesses exactly repeat an
// earlier one. The batched replay (machine.Batch) uses them to prove
// which L1 accesses are hits in every layout and skip their set walks.
// Trace.Facts computes them once per trace; they are read-only after
// that and safe to share between goroutines.
//
// A data access names a placement instance and an offset. An instance
// is one placement of an object: instance i < len(Program.Objects) is
// object i's placement at the start of the run (a global's link-time
// placement; a heap object has none until its first AllocNew), and
// instance len(Program.Objects)+e is the placement made by allocation
// event e (AllocObj[e], an AllocNew). An instance ends at its object's
// next AllocNew; a Free does not end it, because a replayed dangling
// access still goes to the freed address. Two accesses to the same
// (instance, offset) touch the same address in every layout.
type Facts struct {
	// Blocks lists every executed block once, in first-execution order;
	// Repeats[i] counts Blocks[i]'s executions after its first.
	Blocks  []isa.BlockID
	Repeats []uint64
	// MemRepeat has bit i (LSB-first within each word) set iff memory
	// access i has the (instance, offset) of an earlier access;
	// MemRepeats is its popcount.
	MemRepeat  []uint64
	MemRepeats uint64
	// Pairs lists the distinct (instance, offset) pairs the trace
	// accesses in ascending order: grouped by instance, in the order the
	// instances are placed, and by offset within an instance.
	Pairs []Pair
}

// Pair is one (instance, offset) pair, packed so that pairs order by
// instance and then offset.
type Pair uint64

func makePair(inst uint32, off uint32) Pair { return Pair(uint64(inst)<<32 | uint64(off)) }

// Instance returns the pair's placement instance (see Facts).
func (p Pair) Instance() uint64 { return uint64(p) >> 32 }

// Offset returns the pair's byte offset into the instance.
func (p Pair) Offset() uint64 { return uint64(uint32(p)) }

// Facts returns the trace's repeat facts, computing them on first use.
// Traces that are never batch-replayed never pay for them.
func (t *Trace) Facts() *Facts {
	t.factsOnce.Do(func() { t.facts = computeFacts(t) })
	return t.facts
}

// computeFacts walks the trace once. Allocation events advance each
// object's current instance; every access's packed pair goes through
// one open-addressing set, whose insert reports the first sighting.
func computeFacts(t *Trace) *Facts {
	p := t.Program
	f := &Facts{MemRepeat: make([]uint64, (len(t.MemObj)+63)/64)}
	execs := make([]uint64, len(p.Blocks))
	inst := make([]uint32, len(p.Objects))
	for i := range inst {
		inst[i] = uint32(i)
	}
	seen := newPairSet()
	mem, alloc := 0, 0
	for _, bid := range t.BlockSeq {
		if execs[bid] == 0 {
			f.Blocks = append(f.Blocks, bid)
		}
		execs[bid]++
		b := &p.Blocks[bid]
		for range b.Allocs {
			if t.AllocKind[alloc] == isa.AllocNew {
				inst[t.AllocObj[alloc]] = uint32(len(p.Objects) + alloc)
			}
			alloc++
		}
		for range b.Mems {
			if !seen.add(makePair(inst[t.MemObj[mem]], t.MemOff[mem])) {
				f.MemRepeat[mem>>6] |= 1 << (mem & 63)
				f.MemRepeats++
			}
			mem++
		}
	}
	f.Repeats = make([]uint64, len(f.Blocks))
	for i, bid := range f.Blocks {
		f.Repeats[i] = execs[bid] - 1
	}
	f.Pairs = seen.keys
	slices.Sort(f.Pairs)
	return f
}

// pairSet is an open-addressing hash set of pairs with linear probing.
// A slot holds the pair plus one, so zero marks an empty slot; keys lists
// the members in insertion order. The table stays at most half full.
type pairSet struct {
	slots []uint64
	shift uint
	keys  []Pair
}

func newPairSet() *pairSet {
	const bits = 10
	return &pairSet{slots: make([]uint64, 1<<bits), shift: 64 - bits}
}

// add inserts key and reports whether it was absent.
func (s *pairSet) add(key Pair) bool {
	if 2*(len(s.keys)+1) > len(s.slots) {
		s.grow()
	}
	if !s.insert(key) {
		return false
	}
	s.keys = append(s.keys, key)
	return true
}

func (s *pairSet) insert(key Pair) bool {
	mask := uint64(len(s.slots) - 1)
	v := uint64(key) + 1
	for i := (uint64(key) * 0x9e3779b97f4a7c15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = v
			return true
		case v:
			return false
		}
	}
}

func (s *pairSet) grow() {
	s.slots = make([]uint64, 2*len(s.slots))
	s.shift--
	for _, k := range s.keys {
		s.insert(k)
	}
}
