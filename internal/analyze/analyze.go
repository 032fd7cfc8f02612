package analyze

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cmo/internal/il"
	"cmo/internal/naim"
	"cmo/internal/obs"
)

// Level selects how deep verification goes. Levels are cumulative:
// each tier includes every tier below it. The zero value is Off.
type Level int

// Verification levels.
const (
	// Off disables all checking.
	Off Level = iota
	// Structural runs il.Verify per function.
	Structural
	// Dataflow adds per-function CFG/dominance/liveness checks.
	Dataflow
	// Interproc adds whole-program consistency checks and the NAIM
	// round-trip check.
	Interproc
)

func (l Level) String() string {
	switch l {
	case Off:
		return "off"
	case Structural:
		return "structural"
	case Dataflow:
		return "dataflow"
	case Interproc:
		return "interproc"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// ParseLevel converts a level name (as accepted by cmocheck's -level
// flag and printed by String) back to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "off":
		return Off, nil
	case "structural":
		return Structural, nil
	case "dataflow":
		return Dataflow, nil
	case "interproc":
		return Interproc, nil
	}
	return Off, fmt.Errorf("analyze: unknown level %q (want off|structural|dataflow|interproc)", s)
}

// Severity classifies a diagnostic. Errors mean the IL violates an
// invariant the pipeline relies on (a verification failure); warnings
// flag suspicious but legal code (dead stores, unreachable blocks).
type Severity int

// Severities.
const (
	Warning Severity = iota
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// MarshalJSON renders the severity as its name, so JSON output is
// self-describing.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts the names MarshalJSON emits.
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"warning"`:
		*s = Warning
	case `"error"`:
		*s = Error
	default:
		return fmt.Errorf("analyze: bad severity %s", b)
	}
	return nil
}

// Diagnostic is one positioned finding. Block and Instr are -1 when
// the finding is not attached to a specific instruction (whole-function
// or whole-program facts).
type Diagnostic struct {
	// Check is the machine-readable check identifier (e.g.
	// "def-before-use", "callgraph", "facts-promotion").
	Check    string   `json:"check"`
	Severity Severity `json:"severity"`
	// Module is the defining module's name ("" when unknown).
	Module string `json:"module,omitempty"`
	// Function is the enclosing function's name ("" for program-wide
	// findings).
	Function string `json:"function,omitempty"`
	Block    int    `json:"block"`
	Instr    int    `json:"instr"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	pos := ""
	if d.Module != "" {
		pos += d.Module + ": "
	}
	if d.Function != "" {
		pos += d.Function + ": "
	}
	if d.Block >= 0 {
		if d.Instr >= 0 {
			pos += fmt.Sprintf("b%d/%d: ", d.Block, d.Instr)
		} else {
			pos += fmt.Sprintf("b%d: ", d.Block)
		}
	}
	return fmt.Sprintf("%s%s: [%s] %s", pos, d.Severity, d.Check, d.Message)
}

// Result is the outcome of an analysis run.
type Result struct {
	Level Level
	Diags []Diagnostic
	// Functions is the number of function bodies examined.
	Functions int
}

// Errors counts error-severity diagnostics.
func (r *Result) Errors() int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == Error {
			n++
		}
	}
	return n
}

// Warnings counts warning-severity diagnostics.
func (r *Result) Warnings() int { return len(r.Diags) - r.Errors() }

// Err returns nil when no error-severity diagnostics were found, and
// otherwise an error carrying the first one (plus a count), suitable
// for failing a build.
func (r *Result) Err() error {
	first := -1
	n := 0
	for i, d := range r.Diags {
		if d.Severity == Error {
			if first < 0 {
				first = i
			}
			n++
		}
	}
	if first < 0 {
		return nil
	}
	if n == 1 {
		return fmt.Errorf("analyze: %s", r.Diags[first])
	}
	return fmt.Errorf("analyze: %s (and %d more errors)", r.Diags[first], n-1)
}

// Sort orders diagnostics deterministically: errors before warnings
// within the same position, positions in (module, function, block,
// instr, check) order.
func (r *Result) Sort() {
	sort.SliceStable(r.Diags, func(i, j int) bool {
		a, b := r.Diags[i], r.Diags[j]
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		if a.Function != b.Function {
			return a.Function < b.Function
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		if a.Instr != b.Instr {
			return a.Instr < b.Instr
		}
		if a.Severity != b.Severity {
			return a.Severity == Error
		}
		return a.Check < b.Check
	})
}

// Source provides function bodies on demand through read checkouts
// (hlo.FuncSource's View; the NAIM loader in production). Bodies are
// read, never mutated.
type Source interface {
	View(pid il.PID) *il.Function
	DoneWith(pid il.PID)
}

// MapSource is a trivial Source over a map, for tests and for
// loader-less callers (cmocheck).
type MapSource map[il.PID]*il.Function

// View returns the mapped body.
func (m MapSource) View(pid il.PID) *il.Function { return m[pid] }

// DoneWith is a no-op for MapSource.
func (m MapSource) DoneWith(il.PID) {}

// Options configures an analysis run.
type Options struct {
	// Level selects the deepest tier to run. Off returns an empty
	// Result.
	Level Level
	// Omit marks functions removed by whole-program dead-code
	// elimination: their bodies are not checked, and any surviving
	// call to them is a dangling-reference error (the post-link
	// consistency check).
	Omit map[il.PID]bool
	// Span is the trace span the analysis nests under; per-tier child
	// spans make verification cost visible in the build trace. The
	// zero Span disables trace emission.
	Span obs.Span
	// Jobs fans the per-function tiers (structural, dataflow) out over
	// this many goroutines; src must then be safe for concurrent use
	// (the NAIM loader is, MapSource is read-only). The interprocedural
	// and round-trip tiers stay single-threaded: their checks walk
	// shared whole-program state. Diagnostics are identical at any job
	// count — each function's findings land in a per-function slot
	// merged in PID order. 0 or 1 means sequential.
	Jobs int
}

// Program runs the analyzer over every defined function.
func Program(prog *il.Program, src Source, opts Options) *Result {
	res := &Result{Level: opts.Level}
	if opts.Level == Off {
		return res
	}
	pids := prog.FuncPIDs()

	// Per-function tiers (structural, dataflow) share one scan so each
	// body is pulled through the source once. checkOne examines one
	// body and returns its diagnostics plus whether a body existed;
	// it touches no shared state, so the scan parallelizes freely.
	checkOne := func(pid il.PID) (diags []Diagnostic, hasBody bool) {
		f := src.View(pid)
		if f == nil {
			return []Diagnostic{{
				Check: "missing-body", Severity: Error,
				Module: moduleOf(prog, pid), Function: symName(prog, pid),
				Block: -1, Instr: -1,
				Message: "defined function has no body",
			}}, false
		}
		defer src.DoneWith(pid)
		if err := il.Verify(prog, f); err != nil {
			return []Diagnostic{{
				Check: "structural", Severity: Error,
				Module: moduleOf(prog, pid), Function: f.Name,
				Block: -1, Instr: -1,
				Message: err.Error(),
			}}, true
		}
		if opts.Level >= Dataflow {
			return dataflowFunction(prog, f), true
		}
		return nil, true
	}

	var work []il.PID
	for _, pid := range pids {
		if !opts.Omit[pid] {
			work = append(work, pid)
		}
	}
	jobs := opts.Jobs
	if jobs > len(work) {
		jobs = len(work)
	}
	sp := opts.Span.Child("functions")
	if jobs <= 1 {
		for _, pid := range work {
			diags, hasBody := checkOne(pid)
			res.Diags = append(res.Diags, diags...)
			if hasBody {
				res.Functions++
			}
		}
	} else {
		// Worker pool over a shared cursor; results land in per-PID
		// slots so the merged diagnostic stream matches the sequential
		// scan exactly.
		type slot struct {
			diags   []Diagnostic
			hasBody bool
		}
		slots := make([]slot, len(work))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < jobs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(work) {
						return
					}
					slots[i].diags, slots[i].hasBody = checkOne(work[i])
				}
			}()
		}
		wg.Wait()
		for _, s := range slots {
			res.Diags = append(res.Diags, s.diags...)
			if s.hasBody {
				res.Functions++
			}
		}
	}
	sp.End()

	if opts.Level >= Interproc {
		isp := opts.Span.Child("interproc")
		res.Diags = append(res.Diags, interprocChecks(prog, src, opts.Omit)...)
		isp.End()
		rsp := opts.Span.Child("roundtrip")
		res.Diags = append(res.Diags, roundTripChecks(prog, src, opts.Omit)...)
		rsp.End()
	}
	res.Sort()
	return res
}

// Function runs the per-function tiers (structural and, at Dataflow or
// above, the dataflow tier) on a single body. This is the hook LLO
// uses to re-verify each routine after its local transformations.
func Function(prog *il.Program, f *il.Function, level Level) []Diagnostic {
	if level == Off || f == nil {
		return nil
	}
	if err := il.Verify(prog, f); err != nil {
		return []Diagnostic{{
			Check: "structural", Severity: Error,
			Module: moduleOf(prog, f.PID), Function: f.Name,
			Block: -1, Instr: -1,
			Message: err.Error(),
		}}
	}
	if level >= Dataflow {
		return dataflowFunction(prog, f)
	}
	return nil
}

// FirstError converts a diagnostic slice into an error (nil when no
// error-severity diagnostic is present).
func FirstError(diags []Diagnostic) error {
	r := Result{Diags: diags}
	return r.Err()
}

func (r *Result) add(d Diagnostic) { r.Diags = append(r.Diags, d) }

// symName resolves a PID to its symbol name without panicking on
// dangling PIDs (the analyzer must report corruption, not crash on it).
func symName(prog *il.Program, pid il.PID) string {
	if int(pid) >= len(prog.Syms) {
		return fmt.Sprintf("pid%d", pid)
	}
	return prog.Syms[pid].Name
}

// moduleOf resolves a PID's defining module name ("" when unknown or
// unresolved).
func moduleOf(prog *il.Program, pid il.PID) string {
	if int(pid) >= len(prog.Syms) {
		return ""
	}
	m := prog.Syms[pid].Module
	if m < 0 || int(m) >= len(prog.Modules) {
		return ""
	}
	return prog.Modules[m].Name
}

// roundTripChecks verifies that every body survives compaction: the
// expanded → relocatable → expanded trip through the NAIM codec must
// reproduce the IR exactly. A failure here means the loader could
// silently change generated code depending on cache pressure — the
// class of bug that is nearly impossible to isolate downstream.
func roundTripChecks(prog *il.Program, src Source, omit map[il.PID]bool) []Diagnostic {
	var out []Diagnostic
	for _, pid := range prog.FuncPIDs() {
		if omit[pid] {
			continue
		}
		f := src.View(pid)
		if f == nil {
			continue
		}
		if err := naim.VerifyRoundTrip(prog, f); err != nil {
			out = append(out, Diagnostic{
				Check: "naim-roundtrip", Severity: Error,
				Module: moduleOf(prog, pid), Function: f.Name,
				Block: -1, Instr: -1,
				Message: err.Error(),
			})
		}
		src.DoneWith(pid)
	}
	return out
}
