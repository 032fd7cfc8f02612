// Package ir computes derived analyses over IL function bodies:
// control-flow structure, dominators, natural loops, and liveness.
//
// Everything in this package is "derived data" in the paper's NAIM
// taxonomy (Figure 3): it is recomputed from scratch on demand and is
// never kept incrementally up to date or persisted in the relocatable
// form. The NAIM compactor simply drops these structures, which is
// where most of the 2/3 space saving of compaction comes from
// (paper section 4.2.2). Recomputing is not reallocating: CFG.Rebuild
// and Liveness.Rebuild recompute into the storage of an earlier
// result, so a pass that re-derives an analysis every round (DCE's
// fixpoint) reuses one set of arrays for the whole pass. The data is
// still derived afresh each time and never persisted; only the
// storage is reused.
package ir

import "cmo/internal/il"

// CFG is the successor/predecessor view of a function body.
type CFG struct {
	Succs [][]int32
	Preds [][]int32
	// RPO is a reverse postorder of the blocks reachable from block 0.
	RPO []int32
	// Reach[i] reports whether block i is reachable from entry.
	Reach []bool

	// Flat backing storage of the edge lists and the DFS stack, kept
	// for Rebuild.
	succBuf, predBuf, npred []int32
	stack                   []dfsFrame
}

type dfsFrame struct{ b, si int32 }

// BuildCFG computes the control-flow graph of f.
func BuildCFG(f *il.Function) *CFG {
	c := new(CFG)
	c.Rebuild(f)
	return c
}

// Rebuild recomputes c as the control-flow graph of f, reusing the
// storage of c's previous contents: slices taken from c before the
// call are overwritten. Edge lists with no edges are nil, and a Br
// whose two targets are equal has one successor.
func (c *CFG) Rebuild(f *il.Function) {
	n := len(f.Blocks)
	c.Succs = resize(c.Succs, n)
	c.Preds = resize(c.Preds, n)
	c.Reach = resize(c.Reach, n)
	clear(c.Reach)
	c.succBuf = resize(c.succBuf, 2*n)
	ne := 0
	for i, b := range f.Blocks {
		start := ne
		switch b.Term().Op {
		case il.Jmp:
			c.succBuf[ne] = b.T
			ne++
		case il.Br:
			c.succBuf[ne] = b.T
			ne++
			if b.F != b.T {
				c.succBuf[ne] = b.F
				ne++
			}
		}
		c.Succs[i] = edgeList(c.succBuf, start, ne)
	}

	// DFS postorder from entry, written into RPO and reversed in place.
	post := resize(c.RPO, n)[:0]
	stack := append(resize(c.stack, n)[:0], dfsFrame{0, 0})
	c.Reach[0] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if succs := c.Succs[top.b]; int(top.si) < len(succs) {
			s := succs[top.si]
			top.si++
			if !c.Reach[s] {
				c.Reach[s] = true
				stack = append(stack, dfsFrame{s, 0})
			}
			continue
		}
		post = append(post, top.b)
		stack = stack[:len(stack)-1]
	}
	for l, r := 0, len(post)-1; l < r; l, r = l+1, r-1 {
		post[l], post[r] = post[r], post[l]
	}
	c.RPO, c.stack = post, stack

	// Predecessors of reachable blocks, in ascending block order:
	// count, then place each list at its prefix-sum offset.
	c.npred = resize(c.npred, n+1)
	clear(c.npred)
	for i := range f.Blocks {
		if c.Reach[i] {
			for _, s := range c.Succs[i] {
				c.npred[s+1]++
			}
		}
	}
	for i := 1; i <= n; i++ {
		c.npred[i] += c.npred[i-1]
	}
	c.predBuf = resize(c.predBuf, int(c.npred[n]))
	for i := range f.Blocks {
		if c.Reach[i] {
			for _, s := range c.Succs[i] {
				c.predBuf[c.npred[s]] = int32(i)
				c.npred[s]++
			}
		}
	}
	// npred[s] now holds the end of s's list, which is where the list
	// of s+1 starts.
	start := 0
	for s := 0; s < n; s++ {
		end := int(c.npred[s])
		c.Preds[s] = edgeList(c.predBuf, start, end)
		start = end
	}
}

// edgeList returns buf[start:end] with its capacity capped, or nil
// when empty, matching the lists BuildCFG has always returned.
func edgeList(buf []int32, start, end int) []int32 {
	if start == end {
		return nil
	}
	return buf[start:end:end]
}

// resize returns s with length n, reallocating only when its capacity
// is too small. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Dominators holds the immediate-dominator tree computed by the
// Cooper–Harvey–Kennedy algorithm.
type Dominators struct {
	// IDom[b] is the immediate dominator of block b, or -1 for the
	// entry block and unreachable blocks.
	IDom []int32
	cfg  *CFG
}

// BuildDominators computes the dominator tree for a CFG.
func BuildDominators(c *CFG) *Dominators {
	n := len(c.Succs)
	d := &Dominators{IDom: make([]int32, n), cfg: c}
	rpoIndex := make([]int32, n)
	for i := range d.IDom {
		d.IDom[i] = -1
		rpoIndex[i] = -1
	}
	for i, b := range c.RPO {
		rpoIndex[b] = int32(i)
	}
	if len(c.RPO) == 0 {
		return d
	}
	entry := c.RPO[0]
	d.IDom[entry] = entry
	intersect := func(a, b int32) int32 {
		for a != b {
			for rpoIndex[a] > rpoIndex[b] {
				a = d.IDom[a]
			}
			for rpoIndex[b] > rpoIndex[a] {
				b = d.IDom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range c.RPO[1:] {
			var newIDom int32 = -1
			for _, p := range c.Preds[b] {
				if d.IDom[p] == -1 {
					continue
				}
				if newIDom == -1 {
					newIDom = p
				} else {
					newIDom = intersect(p, newIDom)
				}
			}
			if newIDom != -1 && d.IDom[b] != newIDom {
				d.IDom[b] = newIDom
				changed = true
			}
		}
	}
	d.IDom[entry] = -1
	return d
}

// Dominates reports whether block a dominates block b.
func (d *Dominators) Dominates(a, b int32) bool {
	for {
		if a == b {
			return true
		}
		b = d.IDom[b]
		if b == -1 {
			return false
		}
	}
}

// Loop is a natural loop: a back edge target (header) plus its body.
type Loop struct {
	Header int32
	Blocks []int32 // includes the header; sorted ascending
	Depth  int     // 1 for outermost loops
}

// LoopInfo is the set of natural loops and per-block nesting depth.
type LoopInfo struct {
	Loops []Loop
	// Depth[b] is the loop nesting depth of block b (0 = not in a loop).
	Depth []int
}

// BuildLoops finds all natural loops via back edges (edges b->h where
// h dominates b) and computes per-block nesting depth. Loops sharing
// a header are merged, matching the usual definition.
func BuildLoops(c *CFG, d *Dominators) *LoopInfo {
	n := len(c.Succs)
	li := &LoopInfo{Depth: make([]int, n)}
	// bodyOf[h] is 1 + the index of header h in headers, or 0.
	bodyOf := make([]int32, n)
	var headers []int32
	var bodies [][]bool
	var stack []int32
	for b := int32(0); b < int32(n); b++ {
		if !c.Reach[b] {
			continue
		}
		for _, h := range c.Succs[b] {
			if !d.Dominates(h, b) {
				continue
			}
			if bodyOf[h] == 0 {
				body := make([]bool, n)
				body[h] = true
				headers = append(headers, h)
				bodies = append(bodies, body)
				bodyOf[h] = int32(len(bodies))
			}
			body := bodies[bodyOf[h]-1]
			// Walk predecessors backward from the latch.
			stack = append(stack[:0], b)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if body[x] {
					continue
				}
				body[x] = true
				stack = append(stack, c.Preds[x]...)
			}
		}
	}
	// headers were appended in ascending block order scan; keep that
	// order deterministic.
	for i, h := range headers {
		loop := Loop{Header: h}
		for b, in := range bodies[i] {
			if in {
				loop.Blocks = append(loop.Blocks, int32(b))
				li.Depth[b]++
			}
		}
		li.Loops = append(li.Loops, loop)
	}
	for i := range li.Loops {
		li.Loops[i].Depth = li.Depth[li.Loops[i].Header]
	}
	return li
}
