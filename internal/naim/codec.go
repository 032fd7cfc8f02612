package naim

import (
	"errors"
	"fmt"

	"cmo/internal/il"
)

// The relocatable (compacted) encoding of a routine pool.
//
// Layout follows the paper's stack discipline (section 4.2.2): the
// function header is followed immediately by its blocks, each block
// by its instructions, each instruction by its operands — so almost
// no inter-object links need encoding at all. References that do
// cross objects (branch targets, symbol references) are small
// integers: block indexes and PIDs. Derived-data fields are simply
// not represented; they are recomputed after expansion.
//
// The header also carries the function's instruction and operand
// totals, so decoding allocates one slab each for blocks, instructions
// and operands instead of one slice per block and per call.
//
// Encoding a function and decoding it back ("uncompaction with eager
// swizzling") must reproduce the IR exactly; tests enforce this by
// comparing printed IR byte for byte.

const funcMagic = 0xF2

var errCorrupt = errors.New("naim: corrupt relocatable pool")

// appendUvarint appends a base-128 varint.
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// appendVarint appends a zigzag-encoded signed varint.
func appendVarint(b []byte, v int64) []byte {
	return appendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) uvarint() uint64 {
	var v uint64
	var shift uint
	for {
		if r.off >= len(r.b) {
			r.err = errCorrupt
			return 0
		}
		c := r.b[r.off]
		r.off++
		v |= uint64(c&0x7F) << shift
		if c < 0x80 {
			return v
		}
		shift += 7
		if shift > 63 {
			r.err = errCorrupt
			return 0
		}
	}
}

func (r *reader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) byte() byte {
	if r.off >= len(r.b) {
		r.err = errCorrupt
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func appendValue(b []byte, v il.Value) []byte {
	switch {
	case v.IsConst:
		b = append(b, 1)
		return appendVarint(b, v.Const)
	case v.Reg != 0:
		b = append(b, 2)
		return appendUvarint(b, uint64(v.Reg))
	default:
		return append(b, 0)
	}
}

func (r *reader) value() il.Value {
	switch r.byte() {
	case 0:
		return il.Value{}
	case 1:
		return il.ConstVal(r.varint())
	case 2:
		return il.RegVal(il.Reg(r.uvarint()))
	default:
		r.err = errCorrupt
		return il.Value{}
	}
}

// EncodeFunc compacts a routine pool into its relocatable form. The
// output buffer is carved from the arena (nil means plain
// allocation).
func EncodeFunc(f *il.Function, a *Arena) []byte {
	ninstrs, nargs := 0, 0
	for _, blk := range f.Blocks {
		ninstrs += len(blk.Instrs)
		for ii := range blk.Instrs {
			nargs += len(blk.Instrs[ii].Args)
		}
	}
	b := make([]byte, 0, 16+ninstrs*6)
	b = append(b, funcMagic)
	b = appendUvarint(b, uint64(f.PID))
	b = appendUvarint(b, uint64(f.NParams))
	b = append(b, byte(f.Ret))
	b = appendUvarint(b, uint64(f.NRegs))
	b = appendUvarint(b, uint64(f.SrcLines))
	b = appendVarint(b, f.Calls)
	b = appendUvarint(b, uint64(len(f.Blocks)))
	b = appendUvarint(b, uint64(ninstrs))
	b = appendUvarint(b, uint64(nargs))
	for _, blk := range f.Blocks {
		b = appendVarint(b, blk.Freq)
		b = appendVarint(b, int64(blk.T))
		b = appendVarint(b, int64(blk.F))
		b = appendUvarint(b, uint64(len(blk.Instrs)))
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			b = append(b, byte(in.Op))
			b = appendUvarint(b, uint64(in.Dst))
			b = appendValue(b, in.A)
			b = appendValue(b, in.B)
			b = appendUvarint(b, uint64(in.Sym))
			b = appendUvarint(b, uint64(len(in.Args)))
			for _, arg := range in.Args {
				b = appendValue(b, arg)
			}
		}
	}
	if a != nil {
		out := a.Alloc(len(b))
		copy(out, b)
		return out
	}
	return b
}

// DecodeFunc expands a relocatable pool back into working form,
// swizzling PID references against the program symbol table (the
// paper's eager swizzling: all references in the pool are resolved at
// load time). Blocks, instructions and call operands are cut from one
// slab each; every cut is capped at its own length, so an in-place
// append to a decoded block or call reallocates instead of writing
// over its neighbour.
func DecodeFunc(prog *il.Program, blob []byte) (*il.Function, error) {
	r := &reader{b: blob}
	if r.byte() != funcMagic {
		return nil, errCorrupt
	}
	pid := il.PID(r.uvarint())
	f := &il.Function{
		PID:     pid,
		NParams: int(r.uvarint()),
		Ret:     il.Type(r.byte()),
		NRegs:   il.Reg(r.uvarint()),
	}
	f.SrcLines = int(r.uvarint())
	f.Calls = r.varint()
	if int(pid) < len(prog.Syms) {
		f.Name = prog.Syms[pid].Name
	}
	nblocks, ninstrs, nargs := r.uvarint(), r.uvarint(), r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	// Every count is bounded by the blob's length (each element takes
	// at least one byte), so a corrupt header cannot force a huge
	// allocation.
	if nblocks > uint64(len(blob)) || ninstrs > uint64(len(blob)) || nargs > uint64(len(blob)) {
		return nil, errCorrupt
	}
	blocks := make([]il.Block, nblocks)
	instrs := make([]il.Instr, ninstrs)
	var args []il.Value
	if nargs > 0 {
		args = make([]il.Value, nargs)
	}
	f.Blocks = make([]*il.Block, nblocks)
	for bi := range blocks {
		blk := &blocks[bi]
		blk.Freq = r.varint()
		blk.T = int32(r.varint())
		blk.F = int32(r.varint())
		n := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if n > uint64(len(instrs)) {
			return nil, errCorrupt
		}
		blk.Instrs, instrs = instrs[:n:n], instrs[n:]
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			in.Op = il.Op(r.byte())
			in.Dst = il.Reg(r.uvarint())
			in.A = r.value()
			in.B = r.value()
			in.Sym = il.PID(r.uvarint())
			na := r.uvarint()
			if r.err != nil {
				return nil, r.err
			}
			if na > uint64(len(args)) {
				return nil, errCorrupt
			}
			if na > 0 {
				in.Args, args = args[:na:na], args[na:]
				for ai := range in.Args {
					in.Args[ai] = r.value()
				}
			}
		}
		f.Blocks[bi] = blk
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(instrs) != 0 || len(args) != 0 {
		return nil, errCorrupt
	}
	if r.off != len(blob) {
		return nil, fmt.Errorf("naim: %d trailing bytes in relocatable pool", len(blob)-r.off)
	}
	return f, nil
}

// VerifyRoundTrip checks that a body survives compaction unchanged:
// expanded → relocatable → expanded must reproduce the IR exactly
// (compared via the printed form, the same byte-for-byte discipline
// the codec tests use), and re-encoding the decoded body must produce
// the identical relocatable bytes (the codec is deterministic). A
// failure means generated code could depend on cache pressure — the
// loader-level bug class that is nearly impossible to isolate from
// downstream miscompiles.
func VerifyRoundTrip(prog *il.Program, f *il.Function) error {
	blob := EncodeFunc(f, nil)
	back, err := DecodeFunc(prog, blob)
	if err != nil {
		return fmt.Errorf("naim: round-trip decode of %s: %w", f.Name, err)
	}
	want, got := f.Print(prog), back.Print(prog)
	if want != got {
		return fmt.Errorf("naim: round-trip of %s changed the IR:\n-- original --\n%s-- decoded --\n%s", f.Name, want, got)
	}
	blob2 := EncodeFunc(back, nil)
	if len(blob) != len(blob2) {
		return fmt.Errorf("naim: re-encoding %s produced %d bytes, first encoding %d", f.Name, len(blob2), len(blob))
	}
	for i := range blob {
		if blob[i] != blob2[i] {
			return fmt.Errorf("naim: re-encoding %s diverges at byte %d", f.Name, i)
		}
	}
	return nil
}

// EncodeModule compacts a module symbol table.
func EncodeModule(m *il.Module) []byte {
	b := make([]byte, 0, 16+4*(len(m.Defs)+len(m.Externs)))
	b = appendUvarint(b, uint64(len(m.Name)))
	b = append(b, m.Name...)
	b = appendUvarint(b, uint64(m.Index))
	b = appendUvarint(b, uint64(m.Lines))
	b = appendUvarint(b, uint64(len(m.Defs)))
	for _, d := range m.Defs {
		b = appendUvarint(b, uint64(d))
	}
	b = appendUvarint(b, uint64(len(m.Externs)))
	for _, e := range m.Externs {
		b = appendUvarint(b, uint64(e))
	}
	return b
}

// DecodeModule expands a compacted module symbol table.
func DecodeModule(blob []byte) (*il.Module, error) {
	r := &reader{b: blob}
	nameLen := r.uvarint()
	if r.err != nil || r.off+int(nameLen) > len(blob) {
		return nil, errCorrupt
	}
	m := &il.Module{Name: string(blob[r.off : r.off+int(nameLen)])}
	r.off += int(nameLen)
	m.Index = int32(r.uvarint())
	m.Lines = int(r.uvarint())
	nd := r.uvarint()
	if r.err != nil || nd > uint64(len(blob)) {
		return nil, errCorrupt
	}
	m.Defs = make([]il.PID, nd)
	for i := range m.Defs {
		m.Defs[i] = il.PID(r.uvarint())
	}
	ne := r.uvarint()
	if r.err != nil || ne > uint64(len(blob)) {
		return nil, errCorrupt
	}
	m.Externs = make([]il.PID, ne)
	for i := range m.Externs {
		m.Externs[i] = il.PID(r.uvarint())
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}
