package main

import (
	"fmt"
	"io"

	"htmcmp/internal/features"
	"htmcmp/internal/harness"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/trace"
)

// workload is one sweep the benchmark times: the experiments cmd/htmbench
// would render for `-exp <exps> -scale <scale>`, at a fixed pool size.
type workload struct {
	name  string
	scale stamp.Scale
	exps  []string
	// serial runs the pool with one worker; otherwise it has nproc.
	serial bool
	// golden marks a sweep whose seed-42 tables are a verbatim section of
	// results_sim.txt.
	golden bool
}

// allExperiments is the order `htmbench -exp all` renders in.
var allExperiments = []string{"table1", "fig2+3", "fig4", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11", "prefetch", "stm", "capacity", "adaptive"}

// The workloads, and why each was chosen, are documented in BENCHMARK.md.
var workloads = []workload{
	{name: "fig23-sim", scale: stamp.ScaleSim, exps: []string{"fig2+3"}, serial: true, golden: true},
	{name: "capacity-sim", scale: stamp.ScaleSim, exps: []string{"capacity"}, golden: true},
	{name: "all-test", scale: stamp.ScaleTest, exps: allExperiments},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// hasCells reports whether an experiment decomposes into sweep cells; the
// others (static tables and the special-feature runs) render inline.
func hasCells(name string) bool {
	switch name {
	case "table1", "fig6", "fig9":
		return false
	}
	return true
}

// renderExperiment writes one experiment's tables to out exactly as
// cmd/htmbench does. opts.Exec and coll decide how cells are satisfied: a
// *sweep.Plan records them, a *sweep.Scheduler serves them precomputed.
func renderExperiment(name string, opts harness.Options, coll trace.Collector, out io.Writer) error {
	var tables []harness.Table
	var err error
	switch name {
	case "table1":
		tables = []harness.Table{harness.Table1()}
	case "fig2+3":
		var f2, f3 harness.Table
		f2, f3, err = harness.Fig2And3(opts)
		tables = []harness.Table{f2, f3}
	case "fig4":
		tables, err = one(harness.Fig4(opts))
	case "fig5":
		tables, err = one(harness.Fig5(opts))
	case "fig6":
		tables, err = one(fig6Table(opts))
	case "fig7":
		tables, err = one(harness.Fig7(opts))
	case "fig9":
		tables, err = one(fig9Table(opts))
	case "fig10", "fig11":
		var t10, t11 harness.Table
		t10, t11, err = footprintTables(opts, coll)
		if name == "fig10" {
			tables = []harness.Table{t10}
		} else {
			tables = []harness.Table{t11}
		}
	case "prefetch":
		tables, err = one(harness.PrefetchAblation(opts))
	case "stm":
		tables, err = one(harness.STMComparison(opts))
	case "capacity":
		for _, bench := range []string{"intruder", "vacation-high", "yada"} {
			var t harness.Table
			if t, err = harness.CapacitySweep(opts, bench); err != nil {
				break
			}
			tables = append(tables, t)
		}
	case "adaptive":
		tables, err = one(harness.AdaptiveComparison(opts))
	default:
		err = fmt.Errorf("unknown experiment %q", name)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for i := range tables {
		tables[i].Fprint(out)
	}
	return nil
}

func one(t harness.Table, err error) ([]harness.Table, error) {
	return []harness.Table{t}, err
}

// fig6Table renders the Figure 6 CLQ experiment as cmd/htmbench does.
func fig6Table(opts harness.Options) (harness.Table, error) {
	results, err := features.RunCLQ(features.CLQOptions{Seed: opts.Seed})
	if err != nil {
		return harness.Table{}, err
	}
	t := harness.Table{
		Title:  "Figure 6: relative execution time vs lock-free ConcurrentLinkedQueue (zEC12)",
		Note:   "lower is better; baseline is the lock-free CAS implementation at each thread count",
		Header: []string{"threads", "LockFree", "NoRetryTM", "OptRetryTM", "ConstrainedTM"},
	}
	byThreads := map[int]map[features.CLQMode]float64{}
	var order []int
	for _, r := range results {
		if _, ok := byThreads[r.Threads]; !ok {
			byThreads[r.Threads] = map[features.CLQMode]float64{}
			order = append(order, r.Threads)
		}
		byThreads[r.Threads][r.Mode] = r.Relative
	}
	for _, n := range order {
		m := byThreads[n]
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.2f", m[features.CLQLockFree]),
			fmt.Sprintf("%.2f", m[features.CLQNoRetryTM]),
			fmt.Sprintf("%.2f", m[features.CLQOptRetryTM]),
			fmt.Sprintf("%.2f", m[features.CLQConstrainedTM]))
	}
	return t, nil
}

// fig9Table renders the Figure 9 TLS experiment as cmd/htmbench does.
func fig9Table(opts harness.Options) (harness.Table, error) {
	results, err := features.RunTLS(features.TLSOptions{Seed: opts.Seed})
	if err != nil {
		return harness.Table{}, err
	}
	t := harness.Table{
		Title:  "Figure 9: TLS speed-up over sequential on POWER8",
		Header: []string{"kernel", "suspend/resume", "threads", "speedup", "abort%"},
	}
	for _, r := range results {
		sr := "without"
		if r.SuspendResume {
			sr = "with"
		}
		t.AddRow(r.Kernel.String(), sr, fmt.Sprintf("%d", r.Threads),
			fmt.Sprintf("%.2f", r.Speedup), fmt.Sprintf("%.1f", r.AbortRatio))
	}
	return t, nil
}

// footprintTables renders Figures 10 and 11 as cmd/htmbench does.
func footprintTables(opts harness.Options, coll trace.Collector) (t10, t11 harness.Table, err error) {
	fps, err := trace.CollectAll(trace.Options{Scale: opts.Scale, Seed: opts.Seed, Exec: coll})
	if err != nil {
		return t10, t11, err
	}
	t10 = harness.Table{
		Title:  "Figure 10: 90-percentile transactional-load size vs capacity",
		Note:   "abort ratios for the same pairs appear in Figure 3; '>' marks sizes exceeding the platform's capacity",
		Header: []string{"benchmark", "platform", "P90 load KB", "max KB", "capacity KB", "over?"},
	}
	t11 = harness.Table{
		Title:  "Figure 11: 90-percentile transactional-store size vs capacity",
		Header: []string{"benchmark", "platform", "P90 store KB", "max KB", "capacity KB", "over?"},
	}
	for _, fp := range fps {
		spec := platform.New(fp.Platform)
		mark := func(over bool) string {
			if over {
				return ">"
			}
			return ""
		}
		t10.AddRow(fp.Benchmark, fp.Platform.Short(),
			fmt.Sprintf("%.2f", fp.P90LoadKB), fmt.Sprintf("%.2f", fp.MaxLoadKB),
			fmt.Sprintf("%.0f", float64(spec.LoadCapacity)/1024), mark(fp.ExceedsLoadCap))
		t11.AddRow(fp.Benchmark, fp.Platform.Short(),
			fmt.Sprintf("%.2f", fp.P90StoreKB), fmt.Sprintf("%.2f", fp.MaxStoreKB),
			fmt.Sprintf("%.0f", float64(spec.StoreCapacity)/1024), mark(fp.ExceedsStoreCap))
	}
	return t10, t11, nil
}
