// Package hlo is the high-level optimizer: the interprocedural,
// cross-module stage of the pipeline (paper Figure 2). It runs at
// +O4, consumes IL for many modules at once, and performs
// profile-aware inlining, interprocedural constant propagation,
// constant-global promotion, and whole-program dead function
// elimination, delegating function-local cleanup to internal/xform.
//
// HLO never holds function bodies directly: it pulls them through a
// FuncSource (in production the NAIM loader, internal/naim) and
// signals with DoneWith when a body may be unloaded. The access
// pattern is deliberately phased — one initial scan of everything
// (the paper's "minimum amount of analysis ... as the code and data
// are read in"), then repeated touches of only the selected hot
// functions — because that locality is what makes the NAIM expanded-
// pool cache effective (paper section 4.3).
//
// Transforms run in a fixed order — scan, inline, clone, ipcp, dce —
// and that order is part of the deterministic contract: given the
// same inputs, HLO produces the same IL byte for byte, regardless of
// Jobs, NAIM level, or cache warmth. Options.Cancel threads build
// cancellation in at per-function granularity; a cancelled Optimize
// returns with every checkout returned to the source.
//
// # Replay-key invariants (incremental.go)
//
// With a session repository behind the build, the two per-function
// stages that dominate optimization time consult cached transform
// records. Soundness is by key construction, never by invalidation
// logic:
//
//   - An inline record's key covers the caller's transitive callee
//     closure: for every function reachable through call edges, its
//     name, pre-inline content hash, and scope/selected/defined bits.
//     Bottom-up inlining makes the caller's outcome a pure function
//     of exactly that closure. The closure enters the key condensed:
//     each call-graph SCC is hashed over its name-sorted members and
//     the keys of the SCCs it calls, computed callee-first in one
//     pass, and a function's key is its name plus its SCC's key.
//   - An interproc record's key covers the post-clone body hash plus
//     every fact the transform consults: the constant-argument
//     lattice for the parameters, entry/externally-called bits, and
//     a (stored ⊔ volatile, initial value) summary per loaded global.
//
// Anything not captured in a key runs live every time (scan, SCC,
// clone, dead-function elimination — globally coupled and cheap), and
// any decode error or key mismatch falls back to the live path.
// Records may change only how fast the answer arrives, never the
// answer: warm and cold runs are byte-identical.
package hlo
