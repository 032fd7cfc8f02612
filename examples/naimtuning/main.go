// NAIM tuning: drive the not-all-in-memory loader directly through
// its library API — install routine pools, watch them compact and
// offload as the level rises, and print the Figure-5-style dial.
//
//	go run ./examples/naimtuning
package main

import (
	"fmt"
	"log"

	"cmo/internal/il"
	"cmo/internal/lower"
	"cmo/internal/naim"
	"cmo/internal/source"
	"cmo/internal/workload"
)

func main() {
	// Generate a mid-sized program and lower it to IL.
	spec := workload.Spec{
		Name: "tune", Seed: 7,
		Modules: 16, HotPerModule: 3, ColdPerModule: 10, ColdStmts: 18,
	}
	var files []*source.File
	for _, m := range spec.Generate() {
		f, err := source.Parse(m.Name+".minc", m.Text)
		if err != nil {
			log.Fatal(err)
		}
		if err := source.Check(f); err != nil {
			log.Fatal(err)
		}
		files = append(files, f)
	}
	res, err := lower.Modules(files)
	if err != nil {
		log.Fatal(err)
	}
	prog := res.Prog
	fmt.Printf("program: %d modules, %d functions\n\n", len(prog.Modules), len(prog.FuncPIDs()))

	fmt.Printf("%-22s %12s %12s %10s %8s %8s\n",
		"configuration", "peak bytes", "cur bytes", "compacts", "expands", "disk")
	for _, cfg := range []struct {
		name string
		c    naim.Config
	}{
		{"LevelOff (expanded)", naim.Config{ForceLevel: naim.LevelOff}},
		{"LevelIR, 8 slots", naim.Config{ForceLevel: naim.LevelIR, CacheSlots: 8}},
		{"LevelST, 8 slots", naim.Config{ForceLevel: naim.LevelST, CacheSlots: 8}},
		{"LevelDisk, 8 slots", naim.Config{ForceLevel: naim.LevelDisk, CacheSlots: 8}},
	} {
		loader := naim.NewLoader(prog, cfg.c)
		// Fresh clones each round: the loader owns what it is given.
		for _, pid := range prog.FuncPIDs() {
			loader.InstallFunc(res.Funcs[pid].Clone())
		}
		// An optimizer-like access pattern: two full sweeps, plus a
		// hot subset touched repeatedly.
		for round := 0; round < 2; round++ {
			for _, pid := range prog.FuncPIDs() {
				if loader.View(pid) == nil {
					log.Fatalf("lost body for %s", prog.Sym(pid).Name)
				}
				loader.DoneWith(pid)
			}
		}
		hot := prog.FuncPIDs()[:8]
		for round := 0; round < 20; round++ {
			for _, pid := range hot {
				loader.Function(pid)
			}
		}
		s := loader.Stats()
		fmt.Printf("%-22s %12d %12d %10d %8d %8d\n",
			cfg.name, s.PeakBytes, s.CurBytes, s.Compactions, s.Expansions, s.DiskWrites)
		loader.Close()
	}

	// The round-trip guarantee: compact + expand reproduces the IR
	// exactly (print-identical).
	pid := prog.FuncPIDs()[0]
	f := res.Funcs[pid]
	blob := naim.EncodeFunc(f, nil)
	back, err := naim.DecodeFunc(prog, blob)
	if err != nil {
		log.Fatal(err)
	}
	same := back.Print(prog) == f.Print(prog)
	fmt.Printf("\nrelocatable round trip for %s: %d expanded bytes -> %d compacted (%.0f%%), identical=%v\n",
		f.Name, naim.ExpandedFuncBytes(f), len(blob),
		100*float64(len(blob))/float64(naim.ExpandedFuncBytes(f)), same)
	if !same {
		log.Fatal("round trip mismatch")
	}
	_ = il.Verify(prog, back)
}
