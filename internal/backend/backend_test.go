package backend

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"cmo/internal/il"
	"cmo/internal/lower"
	"cmo/internal/naim"
	"cmo/internal/source"
)

const backendSrcA = `module alpha;
var ga int = 7;
func helper(x int) int { return x * 2 + ga; }
func touch() int { return helper(3); }`

const backendSrcB = `module beta;
var gb int = -3;
extern func helper(x int) int;
func entry(n int) int {
	var acc int = gb;
	for (var i int = 0; i < n; i = i + 1) { acc = acc + helper(i); }
	return acc;
}
func main() int { return entry(10); }`

func buildProg(t *testing.T, srcs ...string) (*il.Program, map[il.PID]*il.Function) {
	t.Helper()
	files := make([]*source.File, 0, len(srcs))
	for i, s := range srcs {
		f, err := source.Parse("t.minc", s)
		if err != nil {
			t.Fatalf("parse %d: %v", i, err)
		}
		if err := source.Check(f); err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
		files = append(files, f)
	}
	res, err := lower.Modules(files)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return res.Prog, res.Funcs
}

// partitionOf builds a request covering every function of the program,
// in PID order, at the given tier.
func partitionOf(t *testing.T, prog *il.Program, fns map[il.PID]*il.Function, level int) *Request {
	t.Helper()
	var funcs []Func
	var members []Member
	for _, pid := range prog.FuncPIDs() {
		f := fns[pid]
		if f == nil {
			t.Fatalf("no body for %s", prog.Sym(pid).Name)
		}
		fn := Func{
			Name:  prog.Sym(pid).Name,
			Level: level,
			Body:  naim.EncodePortableFunc(prog, f),
		}
		funcs = append(funcs, fn)
		members = append(members, Member{Name: fn.Name, Level: fn.Level, BodyHash: naim.KeyOf(fn.Body)})
	}
	fp := Fingerprint("test-scope", 0, 1, members)
	return &Request{
		Toolchain: "test-toolchain",
		Shapes:    lower.ShapesOf(prog),
		Part:      Partition{Index: 0, Total: 1, FP: fp, Funcs: funcs},
	}
}

func TestEngineCompileDeterministic(t *testing.T) {
	prog, fns := buildProg(t, backendSrcA, backendSrcB)
	req := partitionOf(t, prog, fns, 2)
	eng := &Engine{Prog: prog}
	a, err := eng.Compile(context.Background(), &req.Part)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	b, err := eng.Compile(context.Background(), &req.Part)
	if err != nil {
		t.Fatalf("recompile: %v", err)
	}
	if len(a.Objects) != len(req.Part.Funcs) {
		t.Fatalf("got %d objects for %d funcs", len(a.Objects), len(req.Part.Funcs))
	}
	for i := range a.Objects {
		if !bytes.Equal(a.Objects[i].Blob, b.Objects[i].Blob) {
			t.Errorf("object %s differs across runs", a.Objects[i].Name)
		}
		if _, err := DecodeObject(prog, a.Objects[i].Blob); err != nil {
			t.Errorf("object %s does not decode: %v", a.Objects[i].Name, err)
		}
	}
}

// The byte-identity core: a bare worker that reconstructs its program
// from shipped shapes — its own PID numbering, no source text — must
// return byte-identical object blobs to the dispatcher's own engine.
func TestExecuteMatchesLocalEngine(t *testing.T) {
	prog, fns := buildProg(t, backendSrcA, backendSrcB)
	req := partitionOf(t, prog, fns, 2)

	local, err := (&Engine{Prog: prog}).Compile(context.Background(), &req.Part)
	if err != nil {
		t.Fatalf("local compile: %v", err)
	}
	remote, err := Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if remote.FP != req.Part.FP {
		t.Fatalf("execute echoed FP %s, want %s", remote.FP, req.Part.FP)
	}
	if len(remote.Objects) != len(local.Objects) {
		t.Fatalf("execute returned %d objects, local %d", len(remote.Objects), len(local.Objects))
	}
	for i := range local.Objects {
		if remote.Objects[i].Name != local.Objects[i].Name {
			t.Fatalf("object %d name %s, want %s", i, remote.Objects[i].Name, local.Objects[i].Name)
		}
		if !bytes.Equal(remote.Objects[i].Blob, local.Objects[i].Blob) {
			t.Errorf("object %s: remote blob differs from local", local.Objects[i].Name)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	prog, fns := buildProg(t, backendSrcA, backendSrcB)
	req := partitionOf(t, prog, fns, 1)
	req.Part.Funcs[0].PBO = true // exercise the flag byte

	back, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatalf("request round trip: %v", err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Error("request round trip is not identity")
	}

	res := &Result{FP: req.Part.FP, Objects: []Object{
		{Name: "helper", Blob: []byte("blob-a"), Nanos: 123},
		{Name: "touch", Blob: nil, Nanos: -1},
	}}
	rback, err := DecodeResult(EncodeResult(res))
	if err != nil {
		t.Fatalf("result round trip: %v", err)
	}
	if rback.FP != res.FP || len(rback.Objects) != len(res.Objects) {
		t.Fatalf("result round trip mangled envelope: %+v", rback)
	}
	for i := range res.Objects {
		if rback.Objects[i].Name != res.Objects[i].Name ||
			rback.Objects[i].Nanos != res.Objects[i].Nanos ||
			!bytes.Equal(rback.Objects[i].Blob, res.Objects[i].Blob) {
			t.Errorf("object %d round trip differs: %+v vs %+v", i, rback.Objects[i], res.Objects[i])
		}
	}
}

// Every truncation of a valid encoding must fail cleanly, never panic
// and never decode successfully (trailing-bytes and bounds checks).
func TestWireTruncationsRejected(t *testing.T) {
	prog, fns := buildProg(t, backendSrcA)
	req := partitionOf(t, prog, fns, 2)
	enc := EncodeRequest(req)
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeRequest(enc[:n]); err == nil {
			t.Fatalf("truncated request (%d/%d bytes) decoded successfully", n, len(enc))
		}
	}
	res, err := Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	renc := EncodeResult(res)
	for n := 0; n < len(renc); n++ {
		if _, err := DecodeResult(renc[:n]); err == nil {
			t.Fatalf("truncated result (%d/%d bytes) decoded successfully", n, len(renc))
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := []Member{
		{Name: "f1", Level: 2, BodyHash: naim.KeyOf([]byte("body-1"))},
		{Name: "f2", Level: 1, PBO: true, BodyHash: naim.KeyOf([]byte("body-2"))},
	}
	clone := func() []Member {
		out := make([]Member, len(base))
		copy(out, base)
		return out
	}
	fp := Fingerprint("scope", 0, 2, base)
	if got := Fingerprint("scope", 0, 2, clone()); got != fp {
		t.Error("equal inputs produced different fingerprints")
	}
	muts := map[string][]Member{}
	m := clone()
	m[0].BodyHash = naim.KeyOf([]byte("body-X"))
	muts["body change"] = m
	m = clone()
	m[0].Level = 1
	muts["tier change"] = m
	m = clone()
	m[1].PBO = false
	muts["pbo change"] = m
	m = clone()
	m[0].Name = "f9"
	muts["rename"] = m
	muts["member dropped"] = clone()[:1]
	for what, members := range muts {
		if Fingerprint("scope", 0, 2, members) == fp {
			t.Errorf("%s did not change the fingerprint", what)
		}
	}
	if Fingerprint("scope", 1, 2, base) == fp {
		t.Error("index change did not change the fingerprint")
	}
	if Fingerprint("scope", 0, 3, base) == fp {
		t.Error("total change did not change the fingerprint")
	}
	if Fingerprint("other", 0, 2, base) == fp {
		t.Error("scope change did not change the fingerprint")
	}
}

// FuzzFingerprint holds both directions of fingerprint change ⇔
// content change over two-member partitions.
func FuzzFingerprint(f *testing.F) {
	f.Add("a", 2, false, []byte("x"), "b", 1, true, []byte("y"))
	f.Add("a", 2, false, []byte("x"), "a", 2, false, []byte("x"))
	f.Fuzz(func(t *testing.T, n1 string, l1 int, p1 bool, b1 []byte, n2 string, l2 int, p2 bool, b2 []byte) {
		fa := []Member{{Name: n1, Level: l1, PBO: p1, BodyHash: naim.KeyOf(b1)}}
		fb := []Member{{Name: n2, Level: l2, PBO: p2, BodyHash: naim.KeyOf(b2)}}
		same := n1 == n2 && l1 == l2 && p1 == p2 && bytes.Equal(b1, b2)
		got := Fingerprint("s", 0, 1, fa) == Fingerprint("s", 0, 1, fb)
		if got != same {
			t.Errorf("fingerprint equality %v, content equality %v (%q/%q)", got, same, n1, n2)
		}
	})
}

// serveBackend is a minimal daemon-side handler for remote tests:
// decode, Execute, encode — with an optional tamper hook on the reply.
func serveBackend(t *testing.T, tamper func(*Result)) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, err := DecodeRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := Execute(r.Context(), req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if tamper != nil {
			tamper(res)
		}
		w.Write(EncodeResult(res))
	}))
}

func TestRemoteRoundTrip(t *testing.T) {
	prog, fns := buildProg(t, backendSrcA, backendSrcB)
	req := partitionOf(t, prog, fns, 2)
	local, err := (&Engine{Prog: prog}).Compile(context.Background(), &req.Part)
	if err != nil {
		t.Fatalf("local compile: %v", err)
	}

	srv := serveBackend(t, nil)
	defer srv.Close()
	rw := &Remote{Addr: srv.URL}
	if rw.Name() != srv.URL {
		t.Errorf("remote name %q, want %q", rw.Name(), srv.URL)
	}
	res, err := rw.Compile(context.Background(), req)
	if err != nil {
		t.Fatalf("remote compile: %v", err)
	}
	for i := range local.Objects {
		if !bytes.Equal(res.Objects[i].Blob, local.Objects[i].Blob) {
			t.Errorf("object %s: remote blob differs from local", local.Objects[i].Name)
		}
	}
}

// A daemon that answers with the wrong shape is treated like one that
// did not answer: every tamper must surface as an error, never as a
// mis-attributed result.
func TestRemoteRejectsMalformedReplies(t *testing.T) {
	prog, fns := buildProg(t, backendSrcA, backendSrcB)
	req := partitionOf(t, prog, fns, 2)

	cases := map[string]func(*Result){
		"wrong fp":      func(r *Result) { r.FP = "not-the-fp" },
		"object lost":   func(r *Result) { r.Objects = r.Objects[:len(r.Objects)-1] },
		"wrong name":    func(r *Result) { r.Objects[0].Name = "impostor" },
		"swapped order": func(r *Result) { r.Objects[0], r.Objects[1] = r.Objects[1], r.Objects[0] },
	}
	for what, tamper := range cases {
		srv := serveBackend(t, tamper)
		rw := &Remote{Addr: srv.URL}
		if _, err := rw.Compile(context.Background(), req); err == nil {
			t.Errorf("%s: remote compile succeeded, want error", what)
		}
		srv.Close()
	}

	// Garbage body and non-200 status.
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("this is not a result"))
	}))
	defer garbage.Close()
	if _, err := (&Remote{Addr: garbage.URL}).Compile(context.Background(), req); err == nil {
		t.Error("garbage reply accepted")
	}
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusConflict)
	}))
	defer refuse.Close()
	if _, err := (&Remote{Addr: refuse.URL}).Compile(context.Background(), req); err == nil {
		t.Error("409 reply accepted")
	}
}
