// Package objfile defines the on-disk artifacts of the toolchain:
// relocatable object files and executable images.
//
// An object file carries the module's machine code (always) and,
// when compiled for CMO, the module's IL in the NAIM relocatable
// encoding. This is the paper's deployment story (section 6.1): all
// persistent information lives in ordinary object files so that
// make-based builds keep working — "when the linker encounters these
// IL objects, it sends them to the optimizer and code-generator for
// further processing". Symbol references inside an object use
// module-local PIDs; the linker interns names into the program-wide
// symbol table and remaps.
package objfile

import (
	"errors"
	"fmt"
	"io"

	"cmo/internal/il"
	"cmo/internal/vpa"
)

// Object is one relocatable object file in memory.
type Object struct {
	Module string
	Lines  int
	// Syms is the module-local symbol table; indexes are the local
	// PIDs used by Code and IL.
	Syms []SymEntry
	// Funcs is the compiled machine code for each defined function.
	Funcs []FuncEntry
	// IL holds the NAIM-encoded IL of each defined function when the
	// object was compiled for cross-module optimization.
	IL []ILEntry
}

// SymEntry describes one module-local symbol.
type SymEntry struct {
	Name    string
	Kind    il.SymKind
	Defined bool
	// Globals.
	Type  il.Type
	Elems int64
	Init  int64
	// Functions.
	Params []il.Type
	Ret    il.Type
}

// FuncEntry is machine code with module-local symbol references.
type FuncEntry struct {
	LocalPID uint32
	Code     *vpa.Func
}

// ILEntry is one function's relocatable IL blob (module-local PIDs).
type ILEntry struct {
	LocalPID uint32
	Blob     []byte
}

// HasIL reports whether the object can participate in CMO.
func (o *Object) HasIL() bool { return len(o.IL) > 0 }

var (
	// Version 2: the relocatable IL pools carry instruction and operand
	// totals (naim.EncodeFunc).
	objMagic   = []byte("VPAO\x02")
	imgMagic   = []byte("VPAX\x01")
	errBadData = errors.New("objfile: malformed file")
)

// ---------------------------------------------------------------------------
// Binary writer/reader helpers.

type writer struct {
	w   io.Writer
	err error
}

func (w *writer) bytes(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

func (w *writer) uvarint(v uint64) {
	var buf [10]byte
	n := 0
	for v >= 0x80 {
		buf[n] = byte(v) | 0x80
		v >>= 7
		n++
	}
	buf[n] = byte(v)
	w.bytes(buf[:n+1])
}

func (w *writer) varint(v int64) { w.uvarint(uint64(v<<1) ^ uint64(v>>63)) }

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.bytes([]byte(s))
}

func (w *writer) blob(b []byte) {
	w.uvarint(uint64(len(b)))
	w.bytes(b)
}

type rdr struct {
	r   io.Reader
	err error
	one [1]byte
}

func (r *rdr) fail() {
	if r.err == nil {
		r.err = errBadData
	}
}

func (r *rdr) byte() byte {
	if r.err != nil {
		return 0
	}
	if _, err := io.ReadFull(r.r, r.one[:]); err != nil {
		r.err = err
		return 0
	}
	return r.one[0]
}

func (r *rdr) uvarint() uint64 {
	var v uint64
	var shift uint
	for {
		c := r.byte()
		if r.err != nil {
			return 0
		}
		v |= uint64(c&0x7F) << shift
		if c < 0x80 {
			return v
		}
		shift += 7
		if shift > 63 {
			r.fail()
			return 0
		}
	}
}

func (r *rdr) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// capLen guards length prefixes against hostile/corrupt input.
func (r *rdr) capLen(n uint64, limit int) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(limit) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *rdr) str() string {
	n := r.capLen(r.uvarint(), 1<<20)
	if r.err != nil || n == 0 {
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.err = err
		return ""
	}
	return string(b)
}

func (r *rdr) blob() []byte {
	n := r.capLen(r.uvarint(), 1<<28)
	if r.err != nil || n == 0 {
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.err = err
		return nil
	}
	return b
}

// ---------------------------------------------------------------------------
// Object encoding.

// Encode writes the object to w.
func (o *Object) Encode(out io.Writer) error {
	w := &writer{w: out}
	w.bytes(objMagic)
	w.str(o.Module)
	w.uvarint(uint64(o.Lines))

	w.uvarint(uint64(len(o.Syms)))
	for _, s := range o.Syms {
		w.str(s.Name)
		w.bytes([]byte{byte(s.Kind), b2b(s.Defined), byte(s.Type), byte(s.Ret)})
		w.varint(s.Elems)
		w.varint(s.Init)
		w.uvarint(uint64(len(s.Params)))
		for _, p := range s.Params {
			w.bytes([]byte{byte(p)})
		}
	}

	w.uvarint(uint64(len(o.Funcs)))
	for _, f := range o.Funcs {
		w.uvarint(uint64(f.LocalPID))
		w.str(f.Code.Name)
		w.uvarint(uint64(f.Code.NSlots))
		w.uvarint(uint64(len(f.Code.Code)))
		for _, in := range f.Code.Code {
			encodeInstr(w, in)
		}
	}

	w.uvarint(uint64(len(o.IL)))
	for _, e := range o.IL {
		w.uvarint(uint64(e.LocalPID))
		w.blob(e.Blob)
	}
	return w.err
}

// DecodeObject reads an object from r.
func DecodeObject(in io.Reader) (*Object, error) {
	r := &rdr{r: in}
	magic := make([]byte, len(objMagic))
	if _, err := io.ReadFull(in, magic); err != nil {
		return nil, fmt.Errorf("objfile: reading magic: %w", err)
	}
	if string(magic) != string(objMagic) {
		return nil, fmt.Errorf("objfile: not a VPA object file")
	}
	o := &Object{}
	o.Module = r.str()
	o.Lines = int(r.uvarint())

	nsyms := r.capLen(r.uvarint(), 1<<22)
	for i := 0; i < nsyms && r.err == nil; i++ {
		var s SymEntry
		s.Name = r.str()
		s.Kind = il.SymKind(r.byte())
		s.Defined = r.byte() != 0
		s.Type = il.Type(r.byte())
		s.Ret = il.Type(r.byte())
		s.Elems = r.varint()
		s.Init = r.varint()
		np := r.capLen(r.uvarint(), 64)
		for j := 0; j < np && r.err == nil; j++ {
			s.Params = append(s.Params, il.Type(r.byte()))
		}
		o.Syms = append(o.Syms, s)
	}

	nfuncs := r.capLen(r.uvarint(), 1<<22)
	for i := 0; i < nfuncs && r.err == nil; i++ {
		var f FuncEntry
		f.LocalPID = uint32(r.uvarint())
		name := r.str()
		nslots := int(r.uvarint())
		ninstr := r.capLen(r.uvarint(), 1<<26)
		code := make([]vpa.Instr, 0, ninstr)
		for j := 0; j < ninstr && r.err == nil; j++ {
			code = append(code, decodeInstr(r))
		}
		f.Code = &vpa.Func{Name: name, NSlots: nslots, Code: code}
		o.Funcs = append(o.Funcs, f)
	}

	nil_ := r.capLen(r.uvarint(), 1<<22)
	for i := 0; i < nil_ && r.err == nil; i++ {
		var e ILEntry
		e.LocalPID = uint32(r.uvarint())
		e.Blob = r.blob()
		o.IL = append(o.IL, e)
	}
	if r.err != nil {
		return nil, fmt.Errorf("objfile: decoding %s: %w", o.Module, r.err)
	}
	return o, nil
}

func encodeInstr(w *writer, in vpa.Instr) {
	w.bytes([]byte{byte(in.Op), in.Rd, in.Ra, in.Rb, b2b(in.ImmB)})
	w.varint(in.Imm)
	w.varint(int64(in.Sym))
	w.varint(int64(in.Target))
}

func decodeInstr(r *rdr) vpa.Instr {
	var in vpa.Instr
	in.Op = vpa.OpCode(r.byte())
	in.Rd = r.byte()
	in.Ra = r.byte()
	in.Rb = r.byte()
	in.ImmB = r.byte() != 0
	in.Imm = r.varint()
	in.Sym = int32(r.varint())
	in.Target = int32(r.varint())
	return in
}

func b2b(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Image encoding (executables).

// EncodeImage writes a finalized executable image.
func EncodeImage(out io.Writer, img *vpa.Image) error {
	w := &writer{w: out}
	w.bytes(imgMagic)
	w.uvarint(uint64(img.Entry))
	w.uvarint(uint64(img.NumProbes))
	w.uvarint(uint64(len(img.Globals)))
	for _, g := range img.Globals {
		w.str(g.Name)
		w.varint(g.Words)
		w.varint(g.Init)
	}
	w.uvarint(uint64(len(img.Funcs)))
	for _, f := range img.Funcs {
		w.str(f.Name)
		w.uvarint(uint64(f.NSlots))
		w.uvarint(uint64(len(f.Code)))
		for _, in := range f.Code {
			encodeInstr(w, in)
		}
	}
	return w.err
}

// DecodeImage reads an executable image and finalizes it.
func DecodeImage(in io.Reader) (*vpa.Image, error) {
	r := &rdr{r: in}
	magic := make([]byte, len(imgMagic))
	if _, err := io.ReadFull(in, magic); err != nil {
		return nil, fmt.Errorf("objfile: reading magic: %w", err)
	}
	if string(magic) != string(imgMagic) {
		return nil, fmt.Errorf("objfile: not a VPA executable image")
	}
	img := &vpa.Image{}
	img.Entry = int32(r.uvarint())
	img.NumProbes = int(r.uvarint())
	ng := r.capLen(r.uvarint(), 1<<22)
	for i := 0; i < ng && r.err == nil; i++ {
		var g vpa.Global
		g.Name = r.str()
		g.Words = r.varint()
		g.Init = r.varint()
		img.Globals = append(img.Globals, g)
	}
	nf := r.capLen(r.uvarint(), 1<<22)
	for i := 0; i < nf && r.err == nil; i++ {
		name := r.str()
		nslots := int(r.uvarint())
		ninstr := r.capLen(r.uvarint(), 1<<26)
		code := make([]vpa.Instr, 0, ninstr)
		for j := 0; j < ninstr && r.err == nil; j++ {
			code = append(code, decodeInstr(r))
		}
		img.Funcs = append(img.Funcs, &vpa.Func{Name: name, NSlots: nslots, Code: code})
	}
	if r.err != nil {
		return nil, fmt.Errorf("objfile: decoding image: %w", r.err)
	}
	img.Finalize()
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return img, nil
}
