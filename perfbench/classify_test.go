package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func stack(names ...string) []frame {
	out := make([]frame, len(names))
	for i, n := range names {
		out[i] = frame{Name: n, File: "/src/" + n + ".go"}
	}
	return out
}

func TestClassify(t *testing.T) {
	vschedFrame := frame{Name: "htmcmp/internal/htm.(*vsched).yield", File: "/repo/internal/htm/vsched.go"}
	lineTable := frame{Name: "htmcmp/internal/htm.getLineTable", File: "/repo/internal/htm/pool.go"}
	cases := []struct {
		name  string
		stack []frame
		want  string
	}{
		{"park_m without repo frame", stack("runtime.gopark", "runtime.park_m", "runtime.mcall"), "vsched"},
		{"scheduler spin without repo frame", stack("runtime.findRunnable", "runtime.schedule", "runtime.mstart"), "runtime.other"},
		{"channel park under the baton",
			append(stack("runtime.chanrecv", "runtime.chanrecv1"), vschedFrame, frame{Name: "htmcmp/internal/htm.(*Thread).TxLoad8", File: "/repo/internal/htm/engine.go"}),
			"vsched"},
		{"memclr under getLineTable",
			append(stack("runtime.memclrNoHeapPointers"), lineTable, frame{Name: "htmcmp/internal/htm.New", File: "/repo/internal/htm/engine.go"}),
			"htm"},
		{"gc background worker", stack("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"), "runtime.gc"},
		{"gc assist charged to the engine",
			append(stack("runtime.gcAssistAlloc", "runtime.mallocgc"), lineTable),
			"runtime.gc"},
		{"arena reset", append(stack("runtime.memclrNoHeapPointers"),
			frame{Name: "htmcmp/internal/mem.(*Space).Reset", File: "/repo/internal/mem/mem.go"}), "mem"},
		{"sub-package folds into harness", stack("encoding/json.Marshal", "htmcmp/internal/cache.Key", "htmcmp/internal/harness/sweep.(*Scheduler).obtain"), "harness"},
		{"innermost repo frame wins", stack("htmcmp/internal/txds.(*RBTree).Insert", "htmcmp/internal/stamp.(*vacation).Run.func1"), "txds"},
		{"benchmark's own code", stack("runtime.mapassign", "main.replayCell"), "bench"},
		{"empty stack", nil, "runtime.other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("%s: classify = %q, want %q", c.name, got, c.want)
		}
		if !contains(layers, classify(c.stack)) {
			t.Errorf("%s: %q is not a listed layer", c.name, classify(c.stack))
		}
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func TestCPUSharesSumToOne(t *testing.T) {
	samples := []sample{
		{Stack: stack("runtime.park_m", "runtime.mcall"), Nanos: 30},
		{Stack: stack("htmcmp/internal/stamp.(*kmeans).Run"), Nanos: 50},
		{Stack: stack("runtime.gcBgMarkWorker"), Nanos: 10},
		{Stack: stack("runtime.futex"), Nanos: 10},
	}
	shares, err := cpuShares(samples)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range layers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v", sum)
	}
	want := map[string]float64{"vsched": 0.3, "stamp": 0.5, "runtime.gc": 0.1, "runtime.other": 0.1}
	for l, w := range want {
		if math.Abs(shares[l]-w) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, shares[l], w)
		}
	}
	if _, err := cpuShares(nil); err == nil {
		t.Error("cpuShares of no samples succeeded")
	}
}

func TestPackageOf(t *testing.T) {
	for in, want := range map[string]string{
		"htmcmp/internal/harness/sweep.(*Scheduler).obtain":          "htmcmp/internal/harness/sweep",
		"htmcmp/internal/htm.New":                                    "htmcmp/internal/htm",
		"runtime.park_m":                                             "runtime",
		"main.main.func1":                                            "main",
		"htmcmp/internal/htm.f[go.shape.*htmcmp/internal/mem.Space]": "htmcmp/internal/htm",
	} {
		if got := packageOf(in); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", in, got, want)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

// TestParseCPUProfile decodes a real runtime/pprof profile and finds the
// function that burned the CPU in it.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForProfile(500 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	found := false
	for _, s := range samples {
		if s.Nanos <= 0 {
			t.Fatalf("sample with %d ns", s.Nanos)
		}
		for _, f := range s.Stack {
			if f.Name == "htmcmp/perfbench.spinForProfile" {
				found = true
				if classify(s.Stack) != "bench" {
					t.Errorf("spin sample classified %q, want bench", classify(s.Stack))
				}
			}
		}
	}
	if !found {
		t.Error("spinForProfile not found in any sampled stack")
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage input parsed")
	}
}
