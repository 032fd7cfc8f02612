package cmo

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmo/internal/naim"
	"cmo/internal/objfile"
	"cmo/internal/workload"
)

// updateGoldens rewrites testdata/image_digests.txt from the current
// code generator:
//
//	go test -run TestImageDigestsPinned -update-goldens .
//
// Regenerating the digests is a deliberate code-generation change:
// CHANGES.md must record why the images' bytes moved. An optimizer
// change that is meant to be a pure speed-up must pass them unchanged.
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/image_digests.txt")

const goldenDigestsPath = "testdata/image_digests.txt"

// goldenSpec is an 8-module program of the Mcad1 shape perfbench's
// workloads use (HotPerModule 3, ColdPerModule 14, ColdStmts 26).
func goldenSpec(seed int64) workload.Spec {
	return workload.Spec{
		Name: "mcad", Seed: seed,
		Modules: 8, HotPerModule: 3, ColdPerModule: 14, ColdStmts: 26,
		ArrayElems: 128, TrainIters: 130, RefIters: 400, TrainMode: 2, RefMode: 4,
	}
}

// TestImageDigestsPinned pins the encoded image bytes of small
// Mcad1-shaped programs across commits: +O2, +O4 with every call site
// in CMO, and +O4 at 10% selectivity under an adaptive NAIM budget,
// each on two seeds. A failure names the configuration whose bytes
// moved.
func TestImageDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six Mcad1-shaped programs")
	}
	got := map[string]string{}
	var order []string
	for _, seed := range []int64{1, 101} {
		spec := goldenSpec(seed)
		mods := sources(spec)
		db, err := Train(mods, []map[string]int64{trainInputs(spec)},
			Options{Volatile: workload.InputGlobals()})
		if err != nil {
			t.Fatalf("seed %d: train: %v", seed, err)
		}
		configs := []struct {
			name string
			opt  Options
		}{
			{"O2", Options{Level: O2}},
			{"O4-all", Options{Level: O4, PBO: true, DB: db, SelectPercent: -1}},
			{"O4-sel10-budget", Options{Level: O4, PBO: true, DB: db, SelectPercent: 10,
				NAIM: naim.Config{BudgetBytes: 256 << 10, ForceLevel: naim.Adaptive}}},
		}
		for _, c := range configs {
			key := fmt.Sprintf("seed%d/%s", seed, c.name)
			opt := c.opt
			opt.Volatile = workload.InputGlobals()
			b, err := BuildSource(mods, opt)
			if err != nil {
				t.Fatalf("%s: build: %v", key, err)
			}
			var buf bytes.Buffer
			if err := objfile.EncodeImage(&buf, b.Image); err != nil {
				t.Fatalf("%s: encode: %v", key, err)
			}
			if opt.NAIM.BudgetBytes > 0 && b.Stats.NAIM.Compactions == 0 {
				t.Errorf("%s: the NAIM budget never compacted; the configuration does not exercise NAIM", key)
			}
			sum := sha256.Sum256(buf.Bytes())
			got[key] = hex.EncodeToString(sum[:])
			order = append(order, key)
		}
	}

	if *updateGoldens {
		var sb strings.Builder
		for _, k := range order {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenDigestsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigestsPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	data, err := os.ReadFile(goldenDigestsPath)
	if err != nil {
		t.Fatalf("reading the pinned digests (regenerate with -update-goldens): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenDigestsPath, line)
		}
		want[k] = v
	}
	if len(want) != len(order) {
		t.Errorf("%s pins %d configurations, the test builds %d", goldenDigestsPath, len(want), len(order))
	}
	for _, k := range order {
		if want[k] != got[k] {
			t.Errorf("%s: image digest %s, pinned %s", k, got[k], want[k])
		}
	}
}

// encodedImage returns b's image in its on-disk encoding.
func encodedImage(t *testing.T, b *Build) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := objfile.EncodeImage(&buf, b.Image); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestForcedDiskOneSlotImagesIdentical builds each configuration
// twice: without a NAIM budget, and through a loader pinned at
// LevelDisk with a one-body cache, where every checkout that is not
// the last one's evicts a body to the repository. A read checkout
// that changed its body without saying so loses the change at that
// eviction, so the two images differ.
func TestForcedDiskOneSlotImagesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds eight Mcad1-shaped programs")
	}
	for _, seed := range []int64{1, 101} {
		spec := goldenSpec(seed)
		mods := sources(spec)
		db, err := Train(mods, []map[string]int64{trainInputs(spec)},
			Options{Volatile: workload.InputGlobals()})
		if err != nil {
			t.Fatalf("seed %d: train: %v", seed, err)
		}
		for _, c := range []struct {
			name string
			opt  Options
		}{
			{"O4-all", Options{Level: O4, PBO: true, DB: db, SelectPercent: -1}},
			{"O4-sel10", Options{Level: O4, PBO: true, DB: db, SelectPercent: 10}},
		} {
			key := fmt.Sprintf("seed%d/%s", seed, c.name)
			opt := c.opt
			opt.Volatile = workload.InputGlobals()
			free, err := BuildSource(mods, opt)
			if err != nil {
				t.Fatalf("%s: unbudgeted build: %v", key, err)
			}
			opt.NAIM = naim.Config{ForceLevel: naim.LevelDisk, CacheSlots: 1, Dir: t.TempDir()}
			disk, err := BuildSource(mods, opt)
			if err != nil {
				t.Fatalf("%s: one-slot LevelDisk build: %v", key, err)
			}
			if disk.Stats.PinLeaks != 0 {
				t.Errorf("%s: one-slot build leaked %d pins", key, disk.Stats.PinLeaks)
			}
			if disk.Stats.NAIM.DiskReads == 0 {
				t.Errorf("%s: the one-slot build never read a body back from disk", key)
			}
			if !bytes.Equal(encodedImage(t, free), encodedImage(t, disk)) {
				t.Errorf("%s: the one-slot LevelDisk image differs from the unbudgeted one", key)
			}
		}
	}
}
