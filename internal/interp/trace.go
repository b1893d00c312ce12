// Package interp executes isa.Programs and records their behaviour as
// layout-independent traces.
//
// A Trace captures everything about one run that is invariant across code
// and data layouts: the sequence of basic blocks executed, every
// conditional-branch outcome, every indirect-call selection, every memory
// access as an (object, offset) pair, and every allocation event. The
// timing models in internal/machine and the predictor instrumentation in
// internal/pintool replay traces against a concrete layout — this mirrors
// the paper's separation between a program's semantics (identical in all
// perturbed executables, §4) and the address-dependent microarchitectural
// events those executables suffer.
package interp

import (
	"fmt"
	"sync"

	"interferometry/internal/isa"
)

// Trace is the recorded behaviour of one program execution.
type Trace struct {
	Program   *isa.Program
	InputSeed uint64

	// BlockSeq is the executed block sequence.
	BlockSeq []isa.BlockID
	// TakenBits records conditional-branch outcomes in execution order,
	// bit-packed LSB-first within each word.
	TakenBits []uint64
	// IndirectSel records the selected target index of each indirect call
	// in execution order.
	IndirectSel []uint8
	// MemObj/MemOff are the object and byte offset of each memory access
	// in execution order; a block execution consumes len(block.Mems)
	// consecutive entries.
	MemObj []isa.ObjectID
	MemOff []uint32
	// AllocObj/AllocKind are allocation events in execution order; a block
	// execution consumes len(block.Allocs) consecutive entries.
	AllocObj  []isa.ObjectID
	AllocKind []isa.AllocKind

	// Instrs is the total number of retired instructions.
	Instrs uint64
	// CondBranches and TakenBranches count dynamic conditional branches.
	CondBranches  uint64
	TakenBranches uint64
	// Calls, IndirectCalls and Returns count control transfers.
	Calls, IndirectCalls, Returns uint64

	// ProcEntries counts entries per procedure; ProcLastEntry records the
	// retired-instruction index of each procedure's most recent entry.
	// Both feed the Camino-style run-limiter instrumentation (§5.7).
	ProcEntries   []uint64
	ProcLastEntry []uint64

	// StoppedBy describes which stop rule ended the run.
	StoppedBy StopReason

	// factsOnce guards facts, the lazily computed repeat facts (Facts).
	factsOnce sync.Once
	facts     *Facts
}

// StopReason says why trace generation ended.
type StopReason uint8

// Stop reasons.
const (
	// StopBudget means the instruction budget was exhausted.
	StopBudget StopReason = iota
	// StopProcCount means the designated procedure reached its entry count
	// (run-limiter semantics).
	StopProcCount
)

func (r StopReason) String() string {
	switch r {
	case StopBudget:
		return "budget"
	case StopProcCount:
		return "proc-count"
	default:
		return fmt.Sprintf("StopReason(%d)", uint8(r))
	}
}

// StopRule tells Run when to end execution. Exactly one mechanism applies:
// if StopCount > 0 the run ends when procedure StopProc has been entered
// StopCount times; otherwise it ends at the first block boundary at or
// beyond Budget retired instructions.
type StopRule struct {
	Budget    uint64
	StopProc  isa.ProcID
	StopCount uint64
}

// appendTaken records one conditional outcome.
func (t *Trace) appendTaken(taken bool) {
	bit := t.CondBranches & 63
	if bit == 0 {
		t.TakenBits = append(t.TakenBits, 0)
	}
	if taken {
		t.TakenBits[len(t.TakenBits)-1] |= 1 << bit
	}
	t.CondBranches++
	if taken {
		t.TakenBranches++
	}
}

// Taken returns the outcome of the i-th dynamic conditional branch.
func (t *Trace) Taken(i uint64) bool {
	return t.TakenBits[i>>6]>>(i&63)&1 == 1
}

// MemAccesses returns the number of recorded memory accesses.
func (t *Trace) MemAccesses() int { return len(t.MemObj) }

// MPKIUpperBound returns dynamic conditional branches per 1000
// instructions — the misprediction rate a predictor that always guesses
// wrong would achieve.
func (t *Trace) MPKIUpperBound() float64 {
	if t.Instrs == 0 {
		return 0
	}
	return float64(t.CondBranches) / float64(t.Instrs) * 1000
}

// Cursor iterates a trace for replay: the machine and pintool walk blocks
// and consume the per-block event streams through it.
type Cursor struct {
	t        *Trace
	blockIdx int
	condIdx  uint64
	indIdx   int
	memIdx   int
	allocIdx int
}

// NewCursor returns a cursor positioned at the start of the trace.
func (t *Trace) NewCursor() *Cursor { return &Cursor{t: t} }

// Cursor returns a cursor value positioned at the start of the trace. Hot
// replay loops use it to keep the cursor on the caller's stack.
func (t *Trace) Cursor() Cursor { return Cursor{t: t} }

// NextBlock returns the next executed block ID, or false at end of trace.
func (c *Cursor) NextBlock() (isa.BlockID, bool) {
	if c.blockIdx >= len(c.t.BlockSeq) {
		return 0, false
	}
	id := c.t.BlockSeq[c.blockIdx]
	c.blockIdx++
	return id, true
}

// PeekBlock returns the block that will be executed after the current one,
// without advancing. ok is false at the end of the trace.
func (c *Cursor) PeekBlock() (isa.BlockID, bool) {
	if c.blockIdx >= len(c.t.BlockSeq) {
		return 0, false
	}
	return c.t.BlockSeq[c.blockIdx], true
}

// NextTaken consumes one conditional-branch outcome.
func (c *Cursor) NextTaken() bool {
	v := c.t.Taken(c.condIdx)
	c.condIdx++
	return v
}

// NextIndirect consumes one indirect-call selection.
func (c *Cursor) NextIndirect() int {
	v := int(c.t.IndirectSel[c.indIdx])
	c.indIdx++
	return v
}

// NextMem consumes one memory access.
func (c *Cursor) NextMem() (isa.ObjectID, uint32) {
	obj, off := c.t.MemObj[c.memIdx], c.t.MemOff[c.memIdx]
	c.memIdx++
	return obj, off
}

// NextAlloc consumes one allocation event.
func (c *Cursor) NextAlloc() (isa.ObjectID, isa.AllocKind) {
	obj, kind := c.t.AllocObj[c.allocIdx], c.t.AllocKind[c.allocIdx]
	c.allocIdx++
	return obj, kind
}

// Footprint summarizes the working set a trace touches, independent of
// any layout: distinct executed blocks and their code bytes (the hot code
// footprint the L1I sees) and distinct 64-byte data granules per object
// (the data footprint the L1D/L2 see). Campaign calibration uses it to
// judge where a benchmark's working set sits relative to the cache
// hierarchy.
type Footprint struct {
	// BlocksExecuted is the number of distinct static blocks executed;
	// HotCodeBytes is their total code size.
	BlocksExecuted int
	HotCodeBytes   uint64
	// DataGranules is the number of distinct (object, 64-byte granule)
	// pairs accessed; DataBytes is that count times 64.
	DataGranules int
	// ObjectsTouched is the number of distinct objects accessed.
	ObjectsTouched int
}

// DataBytes returns the data footprint in bytes.
func (f Footprint) DataBytes() uint64 { return uint64(f.DataGranules) * 64 }

// ComputeFootprint walks the trace once and returns its footprint.
func (t *Trace) ComputeFootprint() Footprint {
	var fp Footprint
	seenBlock := make(map[isa.BlockID]bool)
	for _, bid := range t.BlockSeq {
		if !seenBlock[bid] {
			seenBlock[bid] = true
			fp.HotCodeBytes += uint64(t.Program.Blocks[bid].Bytes)
		}
	}
	fp.BlocksExecuted = len(seenBlock)
	seenData := make(map[uint64]bool)
	seenObj := make(map[isa.ObjectID]bool)
	for i := range t.MemObj {
		seenObj[t.MemObj[i]] = true
		key := uint64(t.MemObj[i])<<40 | uint64(t.MemOff[i]>>6)
		seenData[key] = true
	}
	fp.DataGranules = len(seenData)
	fp.ObjectsTouched = len(seenObj)
	return fp
}
