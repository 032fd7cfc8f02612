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

// lloTierKind is the multi-layer tier a routine was classified into
// (tierNone without multi-layer compilation).
type lloTierKind uint8

const (
	tierNone lloTierKind = iota
	tierCold
	tierWarm
	tierHot
)

// lloTier applies the multi-layer tier policy for one routine. It only
// reads the build, so parallel extract workers may call it; the caller
// counts the returned tier with countTier.
func (b *Build) lloTier(opt Options, multiLayer bool, pid il.PID, f *il.Function) (int, bool, lloTierKind) {
	lloLevel := lloBaseLevel(opt)
	if !multiLayer {
		return lloLevel, opt.PBO, tierNone
	}
	switch {
	case f.Calls == 0:
		// Never executed during training: cheapest codegen.
		return 1, false, tierCold
	case !b.selectedFns[pid]:
		return lloLevel, opt.PBO, tierWarm
	default:
		return lloLevel, opt.PBO, tierHot
	}
}

// countTier records one routine's tier in the build stats.
func (b *Build) countTier(t lloTierKind) {
	switch t {
	case tierCold:
		b.Stats.TierCold++
	case tierWarm:
		b.Stats.TierWarm++
	case tierHot:
		b.Stats.TierHot++
	}
}
