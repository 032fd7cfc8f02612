package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	cmo "cmo"
	"cmo/internal/il"
	"cmo/internal/lower"
	"cmo/internal/naim"
	"cmo/internal/objfile"
	"cmo/internal/profile"
	"cmo/internal/source"
	"cmo/internal/workload"
)

// answer is what a program computes on one input set: main's return
// value.
type answer int64

// answers is a program's result on the reference and the training
// input.
type answers struct {
	Ref, Train answer
}

// version is one program version a round builds: the base program or
// the base plus a chain of one-module edits. Everything a build is
// checked against is computed here, apart from the builds under test.
type version struct {
	mods []cmo.SourceModule
	// dir holds the sources as files, one per module, for the build
	// processes; files lists them in module order.
	dir   string
	files []string
	// oracle is the il.Interp result on the sources lowered without
	// optimization.
	oracle answers
	// image is the reference image: an in-process, cache-less,
	// unbudgeted build with the workload's other options.
	image []byte
}

// programSet is the set-up a run's builds share.
type programSet struct {
	versions []*version
	// profile is the training database file every PBO build reads.
	profile string
	db      *profile.DB
}

func inputs(in workload.Inputs) map[string]int64 {
	return map[string]int64{"input0": in.Iters, "input1": in.Mode}
}

// setup generates the workload's program versions from the seed, runs
// the oracle on each, trains the profile database on the base program
// and makes every reference image.
func (r *runner) setup(ctx context.Context, work string) (*programSet, error) {
	spec := r.def.spec
	spec.Seed = r.seed
	set := &programSet{}

	base := &version{}
	for _, m := range spec.Generate() {
		base.mods = append(base.mods, cmo.SourceModule{Name: m.Name + ".minc", Text: m.Text})
	}
	var err error
	if base.oracle, err = r.oracle(base.mods); err != nil {
		return nil, fmt.Errorf("oracle on the base program: %w", err)
	}
	set.versions = append(set.versions, base)
	rng := rand.New(rand.NewSource(r.seed))
	for len(set.versions) < r.def.versions() {
		prev := set.versions[len(set.versions)-1]
		v, err := r.nextEdit(rng, prev, len(set.versions))
		if err != nil {
			return nil, err
		}
		set.versions = append(set.versions, v)
	}

	sp := r.tr.StartSpan("train")
	set.db, err = cmo.Train(base.mods, []map[string]int64{inputs(spec.Train())},
		cmo.Options{Volatile: workload.InputGlobals(), Jobs: jobs()})
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	set.profile = filepath.Join(work, "train.prof")
	var pb bytes.Buffer
	if err := set.db.Save(&pb); err != nil {
		return nil, fmt.Errorf("saving the profile: %w", err)
	}
	if err := os.WriteFile(set.profile, pb.Bytes(), 0o644); err != nil {
		return nil, err
	}

	for i, v := range set.versions {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if v.image, err = r.reference(set, v); err != nil {
			return nil, fmt.Errorf("reference build of version %d: %w", i, err)
		}
		// Run the reference now, so the simulator's time is set-up and
		// every identical image later finds its answers memoized.
		if _, err := r.runImage(v.image); err != nil {
			return nil, fmt.Errorf("running the reference image of version %d: %w", i, err)
		}
		v.dir = filepath.Join(work, fmt.Sprintf("src-v%d", i))
		if err := os.Mkdir(v.dir, 0o755); err != nil {
			return nil, err
		}
		for _, m := range v.mods {
			if err := os.WriteFile(filepath.Join(v.dir, m.Name), []byte(m.Text), 0o644); err != nil {
				return nil, err
			}
			v.files = append(v.files, m.Name)
		}
	}
	return set, nil
}

// options are the build options every build of the workload uses,
// apart from where its caches live.
func (r *runner) options(set *programSet) cmo.Options {
	return cmo.Options{
		Level: cmo.O4, PBO: true, DB: set.db,
		SelectPercent: r.def.selectPct,
		Volatile:      workload.InputGlobals(),
		Jobs:          jobs(),
	}
}

// reference builds v in process, cache-less and unbudgeted, and
// returns the image bytes every build of v must reproduce.
func (r *runner) reference(set *programSet, v *version) ([]byte, error) {
	b, err := cmo.BuildSource(v.mods, r.options(set))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := objfile.EncodeImage(&buf, b.Image); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// oracle lowers the sources without optimization and interprets main
// on both input sets.
func (r *runner) oracle(mods []cmo.SourceModule) (answers, error) {
	sp := r.tr.StartSpan("direct parse")
	files := make([]*source.File, len(mods))
	for i, m := range mods {
		f, err := source.Parse(m.Name, m.Text)
		if err == nil {
			err = source.Check(f)
		}
		if err != nil {
			sp.End()
			return answers{}, err
		}
		files[i] = f
	}
	sp.End()
	sp = r.tr.StartSpan("direct lower")
	res, err := lower.Modules(files)
	sp.End()
	if err != nil {
		return answers{}, err
	}
	interp := func(in workload.Inputs) (answer, error) {
		it := il.NewInterp(res.Prog, func(pid il.PID) *il.Function { return res.Funcs[pid] })
		for name, val := range inputs(in) {
			if err := it.SetGlobal(name, val); err != nil {
				return 0, err
			}
		}
		v, err := it.Run("main", nil, 0)
		return answer(v), err
	}
	var a answers
	if a.Ref, err = interp(r.def.spec.Ref()); err != nil {
		return answers{}, err
	}
	if a.Train, err = interp(r.def.spec.Train()); err != nil {
		return answers{}, err
	}
	return a, nil
}

// nextEdit derives version k from prev by changing the tuning constant
// of one module. The module sits at a fixed share of the program (k/(n+1)
// of the way along the hot call chain, for n edits), because how much
// an edit invalidates depends on where it lands; the seed draws the new
// value, redrawn until the program's answer on the reference input
// changes, so every edit is one a test would notice.
func (r *runner) nextEdit(rng *rand.Rand, prev *version, k int) (*version, error) {
	n := len(prev.mods)
	first := k * n / r.def.versions()
	for mi := first; mi < first+n; mi++ {
		mi := mi % n
		for try := 0; try < 8; try++ {
			text, ok := editConstant(prev.mods[mi].Text, mi, rng.Int63n(40)+1)
			if !ok {
				return nil, fmt.Errorf("module %d has no tuning constant to edit", mi)
			}
			v := &version{mods: append([]cmo.SourceModule(nil), prev.mods...)}
			v.mods[mi].Text = text
			var err error
			if v.oracle, err = r.oracle(v.mods); err != nil {
				return nil, fmt.Errorf("oracle on an edit of module %d: %w", mi, err)
			}
			if v.oracle.Ref != prev.oracle.Ref {
				return v, nil
			}
		}
	}
	return nil, fmt.Errorf("no one-module edit changed the answer")
}

// editConstant adds delta to the initializer of module mi's tuning
// global g<mi>, which the module's hot functions read.
func editConstant(text string, mi int, delta int64) (string, bool) {
	prefix := fmt.Sprintf("\nvar g%d int = ", mi)
	i := strings.Index(text, prefix)
	if i < 0 {
		return "", false
	}
	j := i + len(prefix)
	k := strings.IndexByte(text[j:], ';')
	if k < 0 {
		return "", false
	}
	n, err := strconv.ParseInt(text[j:j+k], 10, 64)
	if err != nil {
		return "", false
	}
	return text[:j] + strconv.FormatInt(n+delta, 10) + text[j+k:], true
}

// runImage executes an image on both input sets. Results are memoized
// by image hash: an image that equals one already run computes the
// same answers in the same cycles.
func (r *runner) runImage(img []byte) (imageRun, error) {
	key := sha256.Sum256(img)
	if res, ok := r.runs[key]; ok {
		return res, nil
	}
	vi, err := objfile.DecodeImage(bytes.NewReader(img))
	if err != nil {
		return imageRun{}, err
	}
	b := &cmo.Build{Image: vi}
	sp := r.tr.StartSpan("vpa run")
	defer sp.End()
	ref, err := b.Run(inputs(r.def.spec.Ref()), 0)
	if err != nil {
		return imageRun{}, fmt.Errorf("reference input: %w", err)
	}
	train, err := b.Run(inputs(r.def.spec.Train()), 0)
	if err != nil {
		return imageRun{}, fmt.Errorf("training input: %w", err)
	}
	res := imageRun{got: answers{Ref: answer(ref.Value), Train: answer(train.Value)}, refCycles: ref.Stats.Cycles}
	if r.runs == nil {
		r.runs = make(map[[sha256.Size]byte]imageRun)
	}
	r.runs[key] = res
	return res, nil
}

// imageRun is one image's VPA outcome.
type imageRun struct {
	got       answers
	refCycles int64
}

// budgetEngaged reports whether a budgeted build actually ran under
// NAIM: a budget the loader ignored leaves the level off and compacts
// nothing. (A whole-image replay runs no stage, so it has nothing to
// engage; check skips it.)
func budgetEngaged(st *cmo.BuildStats) bool {
	return st.NAIMLevel != naim.LevelOff && st.NAIM.Compactions > 0
}
