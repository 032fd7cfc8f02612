package cmo

import (
	"cmo/internal/analyze"
	"cmo/internal/il"
)

// The LLO stage: compile every surviving function to machine code,
// one routine at a time, as the paper's per-routine code generator
// does. With MultiLayer, each routine's tier picks its code-generation
// effort (paper section 8's layered strategy).
//
// This file holds the per-routine policy: the tier a routine compiles
// at, the verification hook run on LLO's working copy, and the working
// set model. stage_backend.go runs the stage: it groups routines into
// partitions, replays cached objects, and compiles the rest on the
// local pool or remote workers.

// lloBytes models LLO's working-set for one routine: linear IR plus
// quadratic analysis structures (interference, scheduling windows).
func lloBytes(n int) int64 {
	nn := int64(n)
	return 96*nn + nn*nn/6
}

// lloBaseLevel maps the build level to the codegen effort the
// non-tiered routines get.
func lloBaseLevel(opt Options) int {
	if opt.Level == O1 {
		return 1
	}
	return 2
}

// lloVerifyHook builds the per-routine re-verification hook for LLO's
// optimized working copy, just before emission. analyze.Function is
// pure over its inputs, so the hook is safe from parallel codegen
// workers. nil when verification is off.
func (b *Build) lloVerifyHook(opt Options) func(*il.Function) error {
	if opt.Verify == analyze.Off {
		return nil
	}
	prog, level := b.Prog, opt.Verify
	return func(f *il.Function) error {
		return analyze.FirstError(analyze.Function(prog, f, level))
	}
}

// lloTier applies the multi-layer tier policy for one routine.
// Callers serialize it (it mutates tier stats).
func (b *Build) lloTier(opt Options, multiLayer bool, pid il.PID, f *il.Function) (int, bool) {
	lloLevel := lloBaseLevel(opt)
	if !multiLayer {
		return lloLevel, opt.PBO
	}
	switch {
	case f.Calls == 0:
		// Never executed during training: cheapest codegen.
		b.Stats.TierCold++
		return 1, false
	case !b.selectedFns[pid]:
		b.Stats.TierWarm++
		return lloLevel, opt.PBO
	default:
		b.Stats.TierHot++
		return lloLevel, opt.PBO
	}
}
