// Package backend holds the byte seams of the pipeline's partitioned
// code-generation stage: the partition fingerprint, the LLO object
// codec the repository caches, and the POST /backend exchange that
// farms a partition to a cmod daemon (the WHOPR/ltrans phase of the
// GCC LTO papers, grown onto the paper's repository pipeline). The
// build's own local workers compile straight from its loader and
// never pass through this package's codecs.
//
// Everything that crosses a process boundary is name-symbolic — the
// portable post-HLO function encoding in, the name-resolved LLO
// object encoding out — so a remote worker's private PID numbering
// can never leak into the bytes it returns. That is the whole
// byte-identity argument: local and remote execution run the same
// deterministic llo.Compile over the same bodies, and the remote
// result comes back through a PID-free codec that decodes to exactly
// the routine it encoded, so the dispatching build cannot tell
// workers apart by output, only by speed. The differential tests in
// the root package hold images byte-identical across job counts,
// partition counts, and local-vs-remote mixes.
package backend

import (
	"context"
	"fmt"
	"time"

	"cmo/internal/il"
	"cmo/internal/llo"
	"cmo/internal/lower"
	"cmo/internal/naim"
)

// Func is one routine of a remote request: its identity, resolved
// codegen tier, and portable post-HLO body.
type Func struct {
	Name  string
	Level int
	PBO   bool
	// Body is the naim portable (PID-free) encoding of the post-HLO
	// IL body.
	Body []byte
}

// Partition is one unit of backend work. When a warm build finds some
// members already cached it dispatches a shrunk partition holding
// only the members to compile; FP still names the full partition
// (membership, body hashes, tiers) so caching and telemetry agree on
// identity.
type Partition struct {
	Index int
	Total int
	// FP is the deterministic partition fingerprint (see Fingerprint).
	FP string
	// Funcs to compile, in canonical partition order.
	Funcs []Func
}

// Object is one compiled routine in the name-symbolic LLO object
// encoding, with the measured compile time (advisory: it feeds the
// depgraph's cost model, never the bytes).
type Object struct {
	Name  string
	Blob  []byte
	Nanos int64
}

// Request is one remote worker call: the module shapes to rebuild a
// symbol table from, and the partition to compile.
type Request struct {
	// Toolchain guards against version skew across a worker fleet: a
	// worker refuses a request from a different toolchain rather than
	// return objects in a drifted encoding.
	Toolchain string
	// Shapes carries every module's interface in module order.
	Shapes []lower.Shape
	Part   Partition
}

// Result is a worker's reply: one object per requested Func, in
// request order, echoing the partition fingerprint it compiled.
type Result struct {
	FP      string
	Objects []Object
}

// Member identifies one routine of a partition for its fingerprint:
// name, resolved codegen tier, and the content hash of its portable
// post-HLO body (naim.HashPortableFunc), which is all llo.Compile's
// output depends on.
type Member struct {
	Name     string
	Level    int
	PBO      bool
	BodyHash naim.Key
}

// Fingerprint derives the partition's deterministic identity: the
// scope string (toolchain + options fingerprint + partition count),
// its index, and every member's name, tier, and portable body hash.
// Two builds produce equal fingerprints exactly when the partition
// would compile to the same objects — fingerprint change ⇔ partition
// content change (FuzzFingerprint holds both directions).
func Fingerprint(scope string, index, total int, members []Member) string {
	parts := make([]string, 0, 2+3*len(members))
	parts = append(parts, scope, fmt.Sprintf("part=%d/%d", index, total))
	for i := range members {
		m := &members[i]
		parts = append(parts, m.Name, fmt.Sprintf("tier=%d,%t", m.Level, m.PBO), keyHex(m.BodyHash))
	}
	k := naim.KeyOfStrings(parts...)
	return keyHex(k)
}

// Engine compiles a shipped partition against an installed program:
// decode the portable body, run the deterministic low-level optimizer,
// encode the object name-symbolically. It is the execution core of
// the daemon's /backend endpoint (see Execute).
type Engine struct {
	Prog *il.Program
}

// Compile executes one partition, checking ctx between routines.
func (e *Engine) Compile(ctx context.Context, p *Partition) (*Result, error) {
	res := &Result{FP: p.FP, Objects: make([]Object, 0, len(p.Funcs))}
	for i := range p.Funcs {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		fn := &p.Funcs[i]
		sym := e.Prog.Lookup(fn.Name)
		if sym == nil {
			return nil, fmt.Errorf("backend: partition %s names unknown function %s", p.FP, fn.Name)
		}
		f, err := naim.DecodePortableFunc(e.Prog, sym.PID, fn.Body)
		if err != nil {
			return nil, fmt.Errorf("backend: decoding body of %s: %w", fn.Name, err)
		}
		start := time.Now()
		mf, err := llo.Compile(e.Prog, f, llo.Options{Level: fn.Level, PBO: fn.PBO})
		if err != nil {
			return nil, err
		}
		res.Objects = append(res.Objects, Object{
			Name:  fn.Name,
			Blob:  EncodeObject(e.Prog, mf),
			Nanos: time.Since(start).Nanoseconds(),
		})
	}
	return res, nil
}

// Execute serves one request on a bare worker daemon: rebuild a
// symbol table from the shipped shapes, then run the engine. The
// reconstructed program interns symbols through the same
// Register/ResolveExterns passes the frontend uses, so every name the
// partition's bodies reference resolves — to different PIDs than the
// dispatcher's, which the name-symbolic codecs erase.
func Execute(ctx context.Context, req *Request) (*Result, error) {
	prog, err := ProgramFromShapes(req.Shapes)
	if err != nil {
		return nil, err
	}
	eng := &Engine{Prog: prog}
	return eng.Compile(ctx, &req.Part)
}

// ProgramFromShapes replays symbol-table construction from module
// shapes: every definition interned in declaration order (pass 1),
// then every extern resolved (pass 2a) — the frontend's assembly
// halves without any source text.
func ProgramFromShapes(shapes []lower.Shape) (*il.Program, error) {
	prog := il.NewProgram()
	mods := make([]*il.Module, len(shapes))
	for i, sh := range shapes {
		m, err := lower.Register(prog, sh)
		if err != nil {
			return nil, fmt.Errorf("backend: registering %s: %w", sh.Name, err)
		}
		mods[i] = m
	}
	for i, sh := range shapes {
		if err := lower.ResolveExterns(prog, mods[i], sh); err != nil {
			return nil, fmt.Errorf("backend: resolving externs of %s: %w", sh.Name, err)
		}
	}
	return prog, nil
}

func keyHex(k naim.Key) string {
	const hexdigits = "0123456789abcdef"
	out := make([]byte, 0, 2*len(k))
	for _, b := range k {
		out = append(out, hexdigits[b>>4], hexdigits[b&0xf])
	}
	return string(out)
}
