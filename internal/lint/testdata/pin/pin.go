// Package pin seeds pin-discipline violations for the linttest
// runner. It is never built by the go tool (testdata) — it only needs
// to parse.
package pin

type loaderT struct{}

func (loaderT) Function(pid int) *int { return nil }
func (loaderT) View(pid int) *int     { return nil }
func (loaderT) DoneWith(pid int)      {}

type wrap struct{ src loaderT }

// leaky pins bodies and never releases any — the canonical leak.
func leaky(loader loaderT, pids []int) {
	for _, pid := range pids {
		_ = loader.Function(pid) // want `loader\.Function pins a body but this function never calls loader\.DoneWith`
	}
}

// clean pairs every pin with an in-loop release.
func clean(loader loaderT, pids []int) {
	for _, pid := range pids {
		f := loader.Function(pid)
		_ = f
		loader.DoneWith(pid)
	}
}

// deferred releases through a defer — still a release.
func deferred(loader loaderT, pid int) {
	_ = loader.Function(pid)
	defer loader.DoneWith(pid)
}

// nestedLeak pins through a dotted receiver and never releases it.
func (w wrap) nestedLeak(pid int) {
	_ = w.src.Function(pid) // want `w\.src\.Function pins a body but this function never calls w\.src\.DoneWith`
}

// nestedClean pairs the dotted receiver's pin with its release.
func (w wrap) nestedClean(pid int) int {
	f := w.src.Function(pid)
	n := *f
	w.src.DoneWith(pid)
	return n
}

// mixed releases one source but leaks the other: only the leaked
// receiver is reported.
func mixed(a, b loaderT, pid int) {
	_ = a.Function(pid)
	a.DoneWith(pid)
	_ = b.Function(pid) // want `b\.Function pins a body but this function never calls b\.DoneWith`
}

// closureRelease pins in the body and releases inside a nested
// closure — the release still counts (same declaration).
func closureRelease(loader loaderT, pid int) func() {
	_ = loader.Function(pid)
	return func() { loader.DoneWith(pid) }
}

// notAPin calls a package-style helper whose arity rules it out of
// the one-argument pin shape.
func notAPin(pid int) {
	analyze.Function(nil, pid, 3)
}

var analyze struct{ Function func(a any, pid, level int) }

// viewLeak takes a read checkout and never releases it.
func viewLeak(loader loaderT, pid int) {
	_ = loader.View(pid) // want `loader\.View pins a body but this function never calls loader\.DoneWith`
}

// handBack releases the pin and then hands the body to its caller,
// which reads it unpinned.
func handBack(loader loaderT) func(int) *int {
	return func(pid int) *int {
		f := loader.View(pid)
		loader.DoneWith(pid)
		return f // want `f is read after loader\.DoneWith released its pin`
	}
}

// readAfter releases, then reads the body in a later statement.
func readAfter(loader loaderT, pids []int) (n int) {
	for _, pid := range pids {
		f := loader.Function(pid)
		loader.DoneWith(pid)
		if f != nil { // want `f is read after loader\.DoneWith released its pin`
			n += *f
		}
	}
	return n
}

// rebound reads only a fresh checkout after the release.
func rebound(loader loaderT, a, b int) int {
	f := loader.View(a)
	n := *f
	loader.DoneWith(a)
	f = loader.View(b)
	n += *f
	loader.DoneWith(b)
	return n
}

// earlyRelease releases on a branch that returns; the read after the
// branch still holds the pin.
func earlyRelease(loader loaderT, pid int, skip bool) int {
	f := loader.View(pid)
	if skip {
		loader.DoneWith(pid)
		return 0
	}
	n := *f
	loader.DoneWith(pid)
	return n
}

// otherPin releases a different pid than the one the body came from.
func otherPin(loader loaderT, a, b int) int {
	f := loader.View(a)
	_ = loader.View(b)
	loader.DoneWith(b)
	n := *f
	loader.DoneWith(a)
	return n
}
