package hlo

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
	"testing"

	"cmo/internal/il"
)

// refClosureString is the inline key the SCC-condensed keys replaced:
// the transitive callee closure of root rendered member by member,
// sorted by name. It is kept here as the reference the new keys must
// invalidate exactly like.
func refClosureString(p *pass, root il.PID, h0 map[il.PID]string) string {
	seen := map[il.PID]bool{root: true}
	work := []il.PID{root}
	var members []il.PID
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		members = append(members, v)
		for _, w := range p.callees[v] {
			if !seen[w] {
				seen[w] = true
				work = append(work, w)
			}
		}
	}
	sort.Slice(members, func(i, j int) bool {
		return p.prog.Sym(members[i]).Name < p.prog.Sym(members[j]).Name
	})
	var sb strings.Builder
	sb.WriteString(p.prog.Sym(root).Name)
	sb.WriteByte('\n')
	for _, m := range members {
		sym := p.prog.Sym(m)
		sb.WriteString(sym.Name)
		sb.WriteByte('\x00')
		sb.WriteString(h0[m])
		sb.WriteByte('\x00')
		sb.WriteByte(b2c(p.scope[m]))
		sb.WriteByte(b2c(p.selected[m]))
		sb.WriteByte(b2c(sym.Module >= 0))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// keyLib holds a call chain (mid → leaf), a mutual-recursion SCC
// (ping ⇄ pong) that calls into the chain, and an isolated leaf.
const keyLib = `module lib;
var base int = 5;
func leaf(x int) int { return x * 3; }
func mid(x int) int { return leaf(x) + base; }
func side(x int) int { return x - 2; }
func ping(n int) int { if (n == 0) { return mid(n); } return pong(n - 1); }
func pong(n int) int { if (n == 0) { return 0; } return ping(n - 1) + side(n); }
`

const keyApp = `module app;
extern func mid(x int) int;
extern func side(x int) int;
extern func ping(n int) int;
func top(x int) int { return mid(x) + ping(x); }
func lone(x int) int { return side(x) * 2; }
func main() int { return top(4) + lone(3); }
`

// closureKeys runs the scan stage over prog with every function in
// scope and selected, except that noScope (if named) is out of scope
// and noSelect (if named) is not selected. It returns, by function
// name, each selected function's inline key, its reference closure
// string, and the scan's caller edges.
func closureKeys(t *testing.T, prog *il.Program, fns map[il.PID]*il.Function, noScope, noSelect string) (keys, ref map[string]string, p *pass) {
	t.Helper()
	scope := make(map[il.PID]bool)
	selected := make(map[il.PID]bool)
	for _, pid := range prog.FuncPIDs() {
		name := prog.Sym(pid).Name
		if name == noScope {
			continue
		}
		scope[pid] = true
		if name != noSelect {
			selected[pid] = true
		}
	}
	p = &pass{prog: prog, src: MapSource(fns), res: &Result{}, scope: scope, selected: selected}
	p.initialScan()
	h0 := p.prehashScope(&Incremental{Hash: func(f *il.Function) string {
		sum := sha256.Sum256([]byte(f.Print(prog)))
		return hex.EncodeToString(sum[:])
	}})
	keys, ref = make(map[string]string), make(map[string]string)
	for pid, k := range p.inlineClosureKeys(h0) {
		name := prog.Sym(pid).Name
		keys[name] = k
		ref[name] = refClosureString(p, pid, h0)
	}
	if len(keys) != len(selected) {
		t.Fatalf("%d keys for %d selected functions", len(keys), len(selected))
	}
	return keys, ref, p
}

// changedKeys returns the functions keyed on both sides whose key
// differs.
func changedKeys(a, b map[string]string) map[string]bool {
	out := make(map[string]bool)
	for name, k := range a {
		if k2, ok := b[name]; ok && k2 != k {
			out[name] = true
		}
	}
	return out
}

func TestInlineKeysInvalidateLikeClosureStrings(t *testing.T) {
	prog, fns := build(t, keyLib, keyApp)
	baseKeys, baseRef, _ := closureKeys(t, prog, fns, "", "")
	edits := []struct {
		name     string
		lib, app string
	}{
		{"none", keyLib, keyApp},
		{"leaf body", strings.Replace(keyLib, "x * 3", "x * 4", 1), keyApp},
		{"side body", strings.Replace(keyLib, "x - 2", "x - 9", 1), keyApp},
		{"global init", strings.Replace(keyLib, "base int = 5", "base int = 6", 1), keyApp},
		{"new call edge", keyLib, strings.Replace(keyApp, "side(x) * 2", "side(x) * 2 + mid(x)", 1)},
		{"main body", keyLib, strings.Replace(keyApp, "top(4)", "top(5)", 1)},
	}
	var sawChanged, sawSame bool
	for _, e := range edits {
		eprog, efns := build(t, e.lib, e.app)
		keys, ref, _ := closureKeys(t, eprog, efns, "", "")
		for name, k := range baseKeys {
			keyChanged := keys[name] != k
			refChanged := ref[name] != baseRef[name]
			if keyChanged != refChanged {
				t.Errorf("%s: %s key changed=%v, closure string changed=%v", e.name, name, keyChanged, refChanged)
			}
			sawChanged = sawChanged || keyChanged
			sawSame = sawSame || !keyChanged
		}
		if e.name == "none" && len(changedKeys(baseKeys, keys)) != 0 {
			t.Errorf("rebuilding the same sources changed keys: %v", changedKeys(baseKeys, keys))
		}
	}
	if !sawChanged || !sawSame {
		t.Fatalf("edits exercised only one outcome (changed=%v, same=%v)", sawChanged, sawSame)
	}
}

func TestInlineKeysRecursionMembersDifferOnlyByName(t *testing.T) {
	prog, fns := build(t, keyLib, keyApp)
	keys, _, _ := closureKeys(t, prog, fns, "", "")
	ping, pong := keys["ping"], keys["pong"]
	if ping == pong {
		t.Fatalf("ping and pong share a key: %q", ping)
	}
	if rest, ok := strings.CutPrefix(ping, "ping\n"); !ok || "pong\n"+rest != pong {
		t.Errorf("SCC members' keys differ beyond their names:\nping: %q\npong: %q", ping, pong)
	}
	if strings.TrimPrefix(keys["mid"], "mid\n") == strings.TrimPrefix(ping, "ping\n") {
		t.Errorf("mid (outside the SCC) shares the SCC's closure key")
	}
}

func TestInlineKeysBitFlipReachesExactlyTransitiveCallers(t *testing.T) {
	prog, fns := build(t, keyLib, keyApp)
	baseKeys, _, p := closureKeys(t, prog, fns, "", "")
	for _, member := range []string{"leaf", "mid", "side", "pong", "top"} {
		// The functions whose closure contains member: itself and
		// everything that reaches it through caller edges.
		want := map[string]bool{member: true}
		work := []il.PID{prog.Lookup(member).PID}
		for len(work) > 0 {
			v := work[len(work)-1]
			work = work[:len(work)-1]
			for _, c := range p.callers[v] {
				if name := prog.Sym(c).Name; !want[name] {
					want[name] = true
					work = append(work, c)
				}
			}
		}
		for _, flip := range []struct{ bit, noScope, noSelect string }{
			{"selected", "", member},
			{"scope", member, ""},
		} {
			keys, _, _ := closureKeys(t, prog, fns, flip.noScope, flip.noSelect)
			got := changedKeys(baseKeys, keys)
			for name := range baseKeys {
				if _, keyed := keys[name]; keyed && got[name] != want[name] {
					t.Errorf("clearing %s's %s bit: %s key changed=%v, want %v",
						member, flip.bit, name, got[name], want[name])
				}
			}
		}
	}
}

func TestInlineKeysIndependentOfModuleOrder(t *testing.T) {
	prog1, fns1 := build(t, keyLib, keyApp)
	prog2, fns2 := build(t, keyApp, keyLib)
	if prog1.Lookup("main").PID == prog2.Lookup("main").PID {
		t.Fatalf("reordering modules kept main's PID; the test needs different PIDs")
	}
	keys1, _, _ := closureKeys(t, prog1, fns1, "", "")
	keys2, _, _ := closureKeys(t, prog2, fns2, "", "")
	if len(keys1) != len(keys2) {
		t.Fatalf("%d keys against %d", len(keys1), len(keys2))
	}
	for name, k := range keys1 {
		if keys2[name] != k {
			t.Errorf("%s: key depends on module order:\n%q\n%q", name, k, keys2[name])
		}
	}
}
