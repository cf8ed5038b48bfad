package main

import (
	"fmt"
	"math"
	"strings"
)

// Layers are the classes CPU samples are attributed to. Every sample lands
// in exactly one, so a run's shares sum to 1.
var layers = []string{
	"htm", "vsched", "mem", "stamp", "txds", "tm", "adapt",
	"features", "trace", "harness", "bench", "runtime.gc", "runtime.other",
}

const repoPrefix = "htmcmp/internal/"

// classify names the layer that owns one sampled stack (innermost frame
// first):
//   - a stack doing garbage-collection work is runtime.gc, whoever
//     allocated;
//   - otherwise the innermost frame of an htmcmp/internal package decides.
//     Package htm splits in two: functions in vsched.go (the baton and the
//     barrier) are vsched, the rest htm. So runtime frames reached from the
//     scheduler (channel park/wake) count as vsched, and a memclr under
//     getLineTable counts as htm. harness, sweep, cache and the small support
//     packages together are harness;
//   - a stack with no repo frame that parks through runtime.mcall→park_m is
//     vsched: the baton is the simulator's only park point;
//   - the benchmark's own code (package main, htmcmp/perfbench under test)
//     is bench;
//   - anything else is runtime.other.
func classify(stack []frame) string {
	for _, f := range stack {
		if isGCFrame(f.Name) {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		if !strings.HasPrefix(f.Name, repoPrefix) {
			continue
		}
		pkg := packageOf(f.Name)[len(repoPrefix):]
		switch pkg {
		case "htm":
			if strings.HasSuffix(f.File, "/vsched.go") {
				return "vsched"
			}
			return "htm"
		case "mem", "stamp", "txds", "tm", "adapt", "features", "trace":
			return pkg
		}
		return "harness"
	}
	for _, f := range stack {
		if f.Name == "runtime.park_m" {
			return "vsched"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f.Name, "main.") || strings.HasPrefix(f.Name, "htmcmp/perfbench.") {
			return "bench"
		}
	}
	return "runtime.other"
}

// isGCFrame reports whether a runtime function does collector work: the
// background mark workers, mark assists charged to allocating goroutines,
// and the background sweeper and scavenger.
func isGCFrame(name string) bool {
	switch name {
	case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcAssistAlloc1",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkTermination":
		return true
	}
	return false
}

// packageOf returns the import path of a pprof function name such as
// "htmcmp/internal/harness/sweep.(*Scheduler).obtain". Type arguments of a
// generic function may hold paths of their own, so they are cut first.
func packageOf(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// cpuShares attributes samples to layers by CPU time. Every layer appears
// in the result; the shares sum to 1.
func cpuShares(samples []sample) (map[string]float64, error) {
	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		byLayer[classify(s.Stack)] += s.Nanos
		total += s.Nanos
	}
	if total <= 0 {
		return nil, fmt.Errorf("profile holds no CPU samples")
	}
	shares := make(map[string]float64, len(layers))
	sum := 0.0
	for _, l := range layers {
		shares[l] = float64(byLayer[l]) / float64(total)
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("layer shares sum to %v, not 1", sum)
	}
	return shares, nil
}
