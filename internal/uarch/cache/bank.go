package cache

import (
	"fmt"
	"math/bits"
)

// Bank is K logical caches of identical geometry walked in lockstep by a
// batched replay: lane k models the cache of layout k. Semantically each
// lane is exactly a Cache — same true-LRU sets, same hit/miss accounting —
// but the state is laid out for the batch walk and the per-access path is
// leaner than Cache.Access:
//
//   - the valid bit is packed into a 32-bit tag word (tag<<1|1, zero =
//     invalid), so a lookup touches one array of half the width the
//     scalar Cache uses — K lanes of L1 tags stay resident in the host's
//     cache hierarchy;
//   - each set's tags are stored physically in MRU→LRU order, so the
//     common most-recently-used hit is a single compare, a deeper hit is
//     a small copy-shift, and the eviction victim is simply the last
//     slot — there is no separate recency list to maintain;
//   - a per-lane last-line memo short-circuits the common repeat access:
//     if lane k's previous access was to this very line and hit, the line
//     is MRU in its set, so the re-access is a hit whose move-to-front is
//     the identity — only the hit counter needs touching.
//
// Every fast path is behaviorally identical to Cache, which the
// equivalence tests pin lane by lane. One representational caveat: the
// 32-bit packed tag bounds the address space — accesses must stay below
// AddrLimit (2^43 for a 64-set, 64-byte-line geometry), far above any
// simulated address space; an access beyond the limit panics rather than
// silently aliasing, and batched callers pre-check their executables and
// heap placements against AddrLimit and fall back to the scalar path.
// The MRU-order representation caps Bank geometry at 8 ways to keep the
// copy-shift small; wider geometries also fall back to the scalar path.
type Bank struct {
	cfg       Config
	lineShift uint
	tagShift  uint
	setMask   uint64
	ways      int
	sets      int
	lanes     int
	// tags[(k*sets+set)*ways + i] holds the tag<<1|1 of the set's i-th
	// most recently used way; 0 means invalid. The slice is the recency
	// order: a hit moves its tag to slot 0, a miss shifts the set down
	// one slot (dropping the LRU tag in the last slot) and installs at 0.
	tags []uint32

	hits, misses []uint64

	// memo[k] implements the per-lane repeat-access fast path: it holds
	// line<<1|1 after a hit on line, and an even value (never matching a
	// lookup key, which is always odd) whenever the memo must not be
	// trusted — after a miss, a flush, or a prefetch, which can reorder
	// or evict lines behind the memo's back. The single packed word keeps
	// the Access fast path small.
	memo []uint64
}

// NewBank builds a bank of lanes caches with the given geometry. Unlike
// New it returns an error instead of panicking: batched callers fall back
// to the scalar path when a geometry (more than 8 ways) cannot be banked.
func NewBank(cfg Config, lanes int) (*Bank, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lanes <= 0 {
		return nil, fmt.Errorf("cache %s: bank needs at least one lane", cfg.Name)
	}
	if cfg.Ways > 8 {
		return nil, fmt.Errorf("cache %s: bank supports at most 8 ways, got %d", cfg.Name, cfg.Ways)
	}
	sets := cfg.Sets()
	b := &Bank{
		cfg:       cfg,
		lanes:     lanes,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tagShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		ways:      cfg.Ways,
		sets:      sets,
		tags:      make([]uint32, lanes*sets*cfg.Ways),
		hits:      make([]uint64, lanes),
		misses:    make([]uint64, lanes),
		memo:      make([]uint64, lanes),
	}
	return b, nil
}

// Config returns the per-lane cache geometry.
func (b *Bank) Config() Config { return b.cfg }

// Lanes returns the lane count.
func (b *Bank) Lanes() int { return b.lanes }

// AddrLimit returns the first address the bank's 32-bit packed tags
// cannot represent. Accessing an address at or above the limit panics;
// callers needing larger addresses must use the scalar Cache.
func (b *Bank) AddrLimit() uint64 {
	return 1 << (31 + b.lineShift + b.tagShift)
}

// tagFor packs the lookup tag for line, panicking if the address is
// beyond the 32-bit representation (see AddrLimit).
func (b *Bank) tagFor(line uint64) uint32 {
	w := line >> b.tagShift
	if w>>31 != 0 {
		panic("cache: address beyond bank AddrLimit")
	}
	return uint32(w)<<1 | 1
}

// Access looks up the line containing addr in lane k, installing it on a
// miss, and reports whether it hit. It is bit-identical to
// Cache.Access on lane k's private cache.
func (b *Bank) Access(k int, addr uint64) bool {
	key := addr>>b.lineShift<<1 | 1
	if b.memo[k] == key {
		// The lane's previous access was this line and hit: the line is
		// MRU, the move-to-front is the identity, only the counter moves.
		b.hits[k]++
		return true
	}
	return b.accessSlow(k, key)
}

// accessSlow is the memo-miss path: set walk, then memo and counter
// updates. key is line<<1|1.
func (b *Bank) accessSlow(k int, key uint64) bool {
	hit := b.access(k, key>>1)
	if hit {
		b.memo[k] = key
		b.hits[k]++
	} else {
		b.memo[k] = key &^ 1
		b.misses[k]++
	}
	return hit
}

// access performs the set walk for line in lane k without touching the
// counters or the memo.
func (b *Bank) access(k int, line uint64) bool {
	want := b.tagFor(line)
	i := (k*b.sets + int(line&b.setMask)) * b.ways
	t := b.tags[i : i+b.ways : i+b.ways]
	if t[0] == want {
		return true
	}
	for j := 1; j < b.ways; j++ {
		if t[j] == want {
			// Move to MRU slot 0, shifting the more recent tags down.
			copy(t[1:j+1], t[:j])
			t[0] = want
			return true
		}
	}
	// Miss: the shift drops the LRU tag in the last slot.
	copy(t[1:], t[:b.ways-1])
	t[0] = want
	return false
}

// AccessRow performs one access per lane at a shared offset from
// per-lane base addresses — the batched replay's memory event, where
// every lane touches the same object at the same offset but at its own
// placement. Bit i of the returned mask is set iff lane i missed. At
// most 64 lanes (one mask bit per lane); len(bases) must not exceed
// Lanes().
//
// The 8-way walk is open-coded in the lane loop (as in AccessSeq): the
// per-lane set walks are independent, and keeping them call-free in one
// loop body lets the CPU overlap the tag loads of different lanes.
func (b *Bank) AccessRow(bases []uint64, off uint64) uint64 {
	var miss uint64
	if b.ways != 8 {
		for k := range bases {
			key := (bases[k]+off)>>b.lineShift<<1 | 1
			if b.memo[k] == key {
				b.hits[k]++
				continue
			}
			if !b.accessSlow(k, key) {
				miss |= 1 << uint(k)
			}
		}
		return miss
	}
	// The geometry fields are hoisted into locals: the tag stores below
	// keep the compiler from proving b's fields loop invariant, and the
	// reloads dominate the walk otherwise.
	var (
		lineShift = b.lineShift
		tagShift  = b.tagShift
		setMask   = b.setMask
		sets      = b.sets
		tags      = b.tags
		memo      = b.memo
		hits      = b.hits
		misses    = b.misses
	)
	for k := range bases {
		key := (bases[k]+off)>>lineShift<<1 | 1
		if memo[k] == key {
			hits[k]++
			continue
		}
		line := key >> 1
		w := line >> tagShift
		if w>>31 != 0 {
			panic("cache: address beyond bank AddrLimit")
		}
		want := uint32(w)<<1 | 1
		t := (*[8]uint32)(tags[(k*sets+int(line&setMask))*8:])
		hit := true
		switch want {
		case t[0]:
		case t[1]:
			t[1] = t[0]
			t[0] = want
		case t[2]:
			t[2], t[1] = t[1], t[0]
			t[0] = want
		case t[3]:
			t[3], t[2], t[1] = t[2], t[1], t[0]
			t[0] = want
		case t[4]:
			t[4], t[3], t[2], t[1] = t[3], t[2], t[1], t[0]
			t[0] = want
		case t[5]:
			t[5], t[4], t[3], t[2], t[1] = t[4], t[3], t[2], t[1], t[0]
			t[0] = want
		case t[6]:
			t[6], t[5], t[4], t[3], t[2], t[1] = t[5], t[4], t[3], t[2], t[1], t[0]
			t[0] = want
		case t[7]:
			t[7], t[6], t[5], t[4], t[3], t[2], t[1] = t[6], t[5], t[4], t[3], t[2], t[1], t[0]
			t[0] = want
		default:
			hit = false
			t[7], t[6], t[5], t[4], t[3], t[2], t[1] = t[6], t[5], t[4], t[3], t[2], t[1], t[0]
			t[0] = want
		}
		if hit {
			memo[k] = key
			hits[k]++
		} else {
			memo[k] = key &^ 1
			misses[k]++
			miss |= 1 << uint(k)
		}
	}
	return miss
}

// AccessSeq performs n accesses to consecutive lines starting at the
// line containing addr, all in lane k — the batched replay's
// instruction-fetch walk over a block's code lines. Bit i of the
// returned mask is set iff the i-th line missed. n must not exceed 64.
func (b *Bank) AccessSeq(k int, addr uint64, n int32) uint64 {
	var miss uint64
	key := addr>>b.lineShift<<1 | 1
	if b.ways != 8 {
		for i := int32(0); i < n; i++ {
			if b.memo[k] == key {
				b.hits[k]++
			} else if !b.accessSlow(k, key) {
				miss |= 1 << uint(i)
			}
			key += 2
		}
		return miss
	}
	// Hoisted like AccessRow: the fetch walk is the other per-event loop.
	var (
		tagShift = b.tagShift
		setMask  = b.setMask
		sets     = b.sets
		tags     = b.tags
		memoK    = b.memo[k]
		hitsK    = b.hits[k]
		missesK  = b.misses[k]
	)
	for i := int32(0); i < n; i++ {
		if memoK == key {
			hitsK++
			key += 2
			continue
		}
		line := key >> 1
		w := line >> tagShift
		if w>>31 != 0 {
			panic("cache: address beyond bank AddrLimit")
		}
		want := uint32(w)<<1 | 1
		t := (*[8]uint32)(tags[(k*sets+int(line&setMask))*8:])
		hit := true
		switch want {
		case t[0]:
		case t[1]:
			t[1] = t[0]
			t[0] = want
		case t[2]:
			t[2], t[1] = t[1], t[0]
			t[0] = want
		case t[3]:
			t[3], t[2], t[1] = t[2], t[1], t[0]
			t[0] = want
		case t[4]:
			t[4], t[3], t[2], t[1] = t[3], t[2], t[1], t[0]
			t[0] = want
		case t[5]:
			t[5], t[4], t[3], t[2], t[1] = t[4], t[3], t[2], t[1], t[0]
			t[0] = want
		case t[6]:
			t[6], t[5], t[4], t[3], t[2], t[1] = t[5], t[4], t[3], t[2], t[1], t[0]
			t[0] = want
		case t[7]:
			t[7], t[6], t[5], t[4], t[3], t[2], t[1] = t[6], t[5], t[4], t[3], t[2], t[1], t[0]
			t[0] = want
		default:
			hit = false
			t[7], t[6], t[5], t[4], t[3], t[2], t[1] = t[6], t[5], t[4], t[3], t[2], t[1], t[0]
			t[0] = want
		}
		if hit {
			memoK = key
			hitsK++
		} else {
			memoK = key &^ 1
			missesK++
			miss |= 1 << uint(i)
		}
		key += 2
	}
	b.memo[k] = memoK
	b.hits[k] = hitsK
	b.misses[k] = missesK
	return miss
}

// FetchRows performs one AccessSeq per lane in a single call: lane i
// walks lineNs[i] consecutive lines starting at the line containing
// firsts[i], and masks[i] receives its per-line miss mask (bit j set iff
// the j-th line missed). Every lineNs[i] must be at most 64; callers
// with wider fetches chunk through AccessSeq instead. The batched
// replay's fetch loop calls this once per trace block — the hottest call
// site in a batched campaign — so the per-call setup (field loads the
// tag stores would otherwise force the compiler to re-read per line) is
// paid once for the whole batch instead of once per lane.
func (b *Bank) FetchRows(firsts []uint64, lineNs []int32, masks []uint64) {
	if b.ways != 8 {
		for ki := range firsts {
			masks[ki] = b.AccessSeq(ki, firsts[ki], lineNs[ki])
		}
		return
	}
	var (
		lineShift = b.lineShift
		tagShift  = b.tagShift
		setMask   = b.setMask
		sets      = b.sets
		tags      = b.tags
		memo      = b.memo
		hits      = b.hits
		misses    = b.misses
	)
	for ki := range firsts {
		var miss uint64
		key := firsts[ki]>>lineShift<<1 | 1
		n := lineNs[ki]
		memoK := memo[ki]
		hitsK := hits[ki]
		missesK := misses[ki]
		for i := int32(0); i < n; i++ {
			if memoK == key {
				hitsK++
				key += 2
				continue
			}
			line := key >> 1
			w := line >> tagShift
			if w>>31 != 0 {
				panic("cache: address beyond bank AddrLimit")
			}
			want := uint32(w)<<1 | 1
			t := (*[8]uint32)(tags[(ki*sets+int(line&setMask))*8:])
			hit := true
			switch want {
			case t[0]:
			case t[1]:
				t[1] = t[0]
				t[0] = want
			case t[2]:
				t[2], t[1] = t[1], t[0]
				t[0] = want
			case t[3]:
				t[3], t[2], t[1] = t[2], t[1], t[0]
				t[0] = want
			case t[4]:
				t[4], t[3], t[2], t[1] = t[3], t[2], t[1], t[0]
				t[0] = want
			case t[5]:
				t[5], t[4], t[3], t[2], t[1] = t[4], t[3], t[2], t[1], t[0]
				t[0] = want
			case t[6]:
				t[6], t[5], t[4], t[3], t[2], t[1] = t[5], t[4], t[3], t[2], t[1], t[0]
				t[0] = want
			case t[7]:
				t[7], t[6], t[5], t[4], t[3], t[2], t[1] = t[6], t[5], t[4], t[3], t[2], t[1], t[0]
				t[0] = want
			default:
				hit = false
				t[7], t[6], t[5], t[4], t[3], t[2], t[1] = t[6], t[5], t[4], t[3], t[2], t[1], t[0]
				t[0] = want
			}
			if hit {
				memoK = key
				hitsK++
			} else {
				memoK = key &^ 1
				missesK++
				miss |= 1 << uint(i)
			}
			key += 2
		}
		memo[ki] = memoK
		hits[ki] = hitsK
		misses[ki] = missesK
		masks[ki] = miss
	}
}

// Probe reports whether addr currently hits in lane k, without updating
// state or counters.
func (b *Bank) Probe(k int, addr uint64) bool {
	line := addr >> b.lineShift
	want := b.tagFor(line)
	i := (k*b.sets + int(line&b.setMask)) * b.ways
	t := b.tags[i : i+b.ways : i+b.ways]
	for j := 0; j < b.ways; j++ {
		if t[j] == want {
			return true
		}
	}
	return false
}

// Prefetch installs the line containing addr into lane k without touching
// the hit/miss counters, like Cache.Prefetch. It invalidates the lane's
// repeat-access memo: the prefetch may evict or reorder the memoized
// line's set.
func (b *Bank) Prefetch(k int, addr uint64) {
	b.access(k, addr>>b.lineShift)
	b.memo[k] = 0
}

// Hits returns lane k's hit count.
func (b *Bank) Hits(k int) uint64 { return b.hits[k] }

// Misses returns lane k's miss count.
func (b *Bank) Misses(k int) uint64 { return b.misses[k] }

// Accesses returns lane k's hits+misses.
func (b *Bank) Accesses(k int) uint64 { return b.hits[k] + b.misses[k] }

// AddHits accounts n accesses to lane k that the caller has proven are
// hits whose skipped move-to-front cannot change a later outcome: either
// re-accesses of a line it just accessed in lane k with no intervening
// access (identity move-to-front), or accesses to lines in sets that
// provably never evict, where LRU order decides nothing. The batch walk
// uses the first to bulk count the fetch blocks beyond the first in each
// cache line, and the second for its L1-resident paths.
func (b *Bank) AddHits(k int, n uint64) { b.hits[k] += n }

// Flush invalidates all lines and zeroes all counters in every lane,
// restoring the power-on state.
func (b *Bank) Flush() {
	for i := range b.tags {
		b.tags[i] = 0
	}
	for k := 0; k < b.lanes; k++ {
		b.hits[k], b.misses[k] = 0, 0
		b.memo[k] = 0
	}
}
