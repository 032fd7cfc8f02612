package hlo

import (
	"strings"
	"testing"

	"cmo/internal/il"
)

// cloneSrc: work() is too large to inline (over ColdMaxSize) and is
// called with two distinct constant mode groups plus one varying
// site, so cloning — not inlining, not IPCP — is the transformation
// that can specialize it.
const cloneSrc = `module m;
var sink int;
func work(mode int, x int) int {
	var a int = x * 3 + mode; var b int = a - x * 2; var c int = b * a + mode;
	var d int = c % 991; var e int = d + a - b + c * 2;
	var f int = e * 3 - d + a; var g int = f % 313 + b; var h int = g * 2 - e;
	var i int = h + f - g + d; var j int = i * 2 - h + e - d + c - b + a;
	var k int = j % 771 + i - h + g - f + e - d + c;
	var l int = k * 2 + j - i + h - g + f - e + d;
	var n int = l % 577 + k - j + i - h + g - f;
	var o int = n * 3 - l + k - j + i - h;
	var p int = o % 421 + n - l + k - j;
	if (mode == 1) { p = p + a * 7; } else { p = p - b * 3; }
	if (mode == 2) { p = p * 2 + c; }
	return p + o + n + l + k + j + i + h + g + f + e + d + c + b + a;
}
func caller1(x int) int { return work(1, x) + work(1, x + 5); }
func caller2(x int) int { return work(2, x) + work(2, x * 3); }
func caller3(x int, m int) int { return work(m, x); }
func main() int {
	var s int = 0;
	for (var it int = 0; it < 40; it = it + 1) {
		s = s + caller1(it) % 100003 + caller2(it + 7) % 100003 + caller3(it, it % 3) % 100003;
		if (s > 1000000000) { s = s % 268435455; }
	}
	sink = s;
	return s % 1000003;
}`

func TestCloningSpecializesConstantGroups(t *testing.T) {
	prog, fns := build(t, cloneSrc)
	work, res := optimize(t, prog, fns, Options{})
	if res.Stats.Clones < 2 {
		t.Fatalf("Clones = %d, want >= 2 (mode=1 and mode=2 groups)", res.Stats.Clones)
	}
	// The clones exist as program symbols with verified bodies.
	cloneCount := 0
	for _, pid := range prog.FuncPIDs() {
		name := prog.Sym(pid).Name
		if !strings.Contains(name, "$clone") {
			continue
		}
		cloneCount++
		body := work[pid]
		if body == nil {
			t.Fatalf("clone %s has no body", name)
		}
		if err := il.Verify(prog, body); err != nil {
			t.Fatalf("clone %s does not verify: %v", name, err)
		}
		// Specialization: the baked-in constant must have made the
		// clone's mode-dependent branches foldable, so the clone is
		// smaller than the original.
		origBody := work[prog.Lookup("work").PID]
		if body.NumInstrs() >= origBody.NumInstrs() {
			t.Errorf("clone %s (%d instrs) not smaller than original (%d)",
				name, body.NumInstrs(), origBody.NumInstrs())
		}
	}
	if cloneCount != res.Stats.Clones {
		t.Errorf("symbol table has %d clones, stats say %d", cloneCount, res.Stats.Clones)
	}
	// The constant-group call sites must have been redirected; the
	// varying site (caller3) must still target the original.
	workPID := prog.Lookup("work").PID
	targets := map[string]map[string]bool{}
	for _, caller := range []string{"caller1", "caller2", "caller3"} {
		f := work[prog.Lookup(caller).PID]
		targets[caller] = map[string]bool{}
		for _, b := range f.Blocks {
			for ii := range b.Instrs {
				if in := &b.Instrs[ii]; in.Op == il.Call {
					targets[caller][prog.Sym(in.Sym).Name] = true
				}
			}
		}
		_ = workPID
	}
	if targets["caller1"]["work"] || targets["caller2"]["work"] {
		t.Errorf("constant-group sites still call the original: %v", targets)
	}
	if !targets["caller3"]["work"] {
		t.Errorf("varying site redirected away from the original: %v", targets)
	}
}

func TestCloningDisabledWithoutInstaller(t *testing.T) {
	prog, fns := build(t, cloneSrc)
	// A FuncSource without InstallFunc cannot receive new bodies, so
	// the cloning pass must decline gracefully.
	res, err := Optimize(prog, bareSource{m: fns}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Clones != 0 {
		t.Errorf("cloning happened without an Installer: %d", res.Stats.Clones)
	}
}

// bareSource hides MapSource's InstallFunc.
type bareSource struct{ m MapSource }

func (b bareSource) View(pid il.PID) *il.Function { return b.m[pid] }
func (b bareSource) MarkDirty(il.PID)             {}
func (b bareSource) DoneWith(il.PID)              {}

func TestCloneNamesDoNotCollide(t *testing.T) {
	prog, fns := build(t, cloneSrc)
	_, res := optimize(t, prog, fns, Options{})
	seen := map[string]bool{}
	for _, pid := range prog.FuncPIDs() {
		name := prog.Sym(pid).Name
		if seen[name] {
			t.Fatalf("duplicate symbol %s", name)
		}
		seen[name] = true
	}
	_ = res
}
