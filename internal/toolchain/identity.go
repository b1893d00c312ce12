package toolchain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Identity fingerprints everything that determines the builder's output
// for a given seed: the layout-relevant program shape (block sizes,
// procedure structure, branch targets — which drive fetch alignment —
// and global object sizes), the compile-time unit partition, and the
// link configuration. Two builders with equal identities produce
// identical executables for every seed, so the identity is safe to
// compare across processes: attestation keys observation fingerprints
// by it, and any change to program or toolchain config changes it. The
// hashed bytes, version prefix included, are part of the worker wire
// protocol; changing them splits a mixed-version fleet.
func (b *Builder) Identity() string {
	h := sha256.New()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ws := func(s string) {
		wu(uint64(len(s)))
		h.Write([]byte(s))
	}
	p := b.prog
	ws("interferometry-layout-v1")
	ws(p.Name)
	wu(p.Seed)
	wu(uint64(p.Main))
	wu(uint64(len(p.Blocks)))
	for i := range p.Blocks {
		blk := &p.Blocks[i]
		wu(uint64(blk.Proc))
		wu(uint64(blk.Bytes))
		wu(uint64(blk.Term.Kind))
		wu(uint64(blk.Term.Target))
	}
	wu(uint64(len(p.Procs)))
	for i := range p.Procs {
		ws(p.Procs[i].Name)
		wu(uint64(len(p.Procs[i].Blocks)))
		for _, bid := range p.Procs[i].Blocks {
			wu(uint64(bid))
		}
	}
	wu(uint64(len(p.Objects)))
	for i := range p.Objects {
		wu(p.Objects[i].Size)
		if p.Objects[i].Heap {
			wu(1)
		} else {
			wu(0)
		}
	}
	wu(uint64(len(b.units)))
	for i := range b.units {
		u := &b.units[i]
		ws(u.Name)
		wu(uint64(len(u.Procs)))
		for _, pid := range u.Procs {
			wu(uint64(pid))
		}
		wu(uint64(len(u.Globals)))
		for _, obj := range u.Globals {
			wu(uint64(obj))
		}
	}
	lcfg := b.lcfg
	lcfg.fillDefaults()
	wu(lcfg.CodeBase)
	wu(lcfg.DataBase)
	wu(lcfg.ProcAlign)
	wu(lcfg.FetchAlign)
	wu(lcfg.GlobalAlign)
	return hex.EncodeToString(h.Sum(nil))
}
