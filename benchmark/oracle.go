package main

import (
	"fmt"
	"runtime"
	"sync"

	"clydesdale/internal/core"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// answerTolerance is the relative tolerance for SUM columns: engines add in
// different orders.
const answerTolerance = 1e-9

// goldens computes the reference answer of every query with refexec, on as
// many goroutines as the host has processors (refexec scans the generator's
// fact table once per query; this runs after the window, so it competes
// with nothing).
func goldens(gen *ssb.Generator, queries []*core.Query) ([]*results.ResultSet, error) {
	out := make([]*results.ResultSet, len(queries))
	errs := make([]error, len(queries))
	next := make(chan int, len(queries)) // every index is queued up front
	for i := range queries {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = refexec.Run(gen, queries[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("refexec %s: %w", queries[i].Name, err)
		}
	}
	return out, nil
}

// checkStored compares every stored answer with the golden of its key and
// returns how many were compared and how many differed.
func checkStored(kept []stored, golden map[string]*results.ResultSet) (checked, wrong int, err error) {
	for _, s := range kept {
		want, ok := golden[s.key]
		if !ok {
			return checked, wrong, fmt.Errorf("no golden answer for %s", s.key)
		}
		checked++
		if ok, _ := results.Equivalent(s.rs, want, answerTolerance); !ok {
			wrong++
		}
	}
	return checked, wrong, nil
}
