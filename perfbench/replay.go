package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"htmcmp/internal/adapt"
	"htmcmp/internal/cache"
	"htmcmp/internal/features"
	"htmcmp/internal/harness"
	"htmcmp/internal/harness/sweep"
	"htmcmp/internal/htm"
	"htmcmp/internal/mem"
	"htmcmp/internal/platform"
	"htmcmp/internal/stamp"
	"htmcmp/internal/stats"
	"htmcmp/internal/tm"
	"htmcmp/internal/trace"
)

// Span names: one per layer call the replay times.
const (
	spanNewSpace = "mem.NewSpace"
	spanReset    = "mem.Space.Reset"
	spanNew      = "htm.New"
	spanSetup    = "stamp.New+Setup"
	spanRuntime  = "tm/adapt.setup"
	spanRun      = "Run"
	spanValidate = "Validate"
	spanStats    = "Stats"
	spanRelease  = "Release"
	spanCollect  = "trace.Collect"
	spanCLQ      = "features.RunCLQ"
	spanTLS      = "features.RunTLS"
)

// spanLog keeps span durations in memory, by name. Each replay worker owns
// one; they are merged after the workers finish.
type spanLog map[string][]time.Duration

func (l spanLog) time(name string, f func()) {
	t0 := time.Now()
	f()
	l[name] = append(l[name], time.Since(t0))
}

func (l spanLog) totalMS(names ...string) float64 {
	var d time.Duration
	for _, n := range names {
		for _, x := range l[n] {
			d += x
		}
	}
	return float64(d) / float64(time.Millisecond)
}

// cellReplay is what replaying one cell produced: the outcome the fidelity
// check compares with the sweep's, and counters summed over every run the
// replay made (a tuned cell's search trials included).
type cellReplay struct {
	res harness.Result // SeqSeconds, ParSeconds, Speedup, TM and Engine only
	fp  trace.Footprint
	totals
	err error
}

type totals struct {
	seqCycles, parCycles, handoffs, switches uint64
	eng                                      htm.Stats
	tm                                       tm.Stats
}

func (t *totals) add(o totals) {
	t.seqCycles += o.seqCycles
	t.parCycles += o.parCycles
	t.handoffs += o.handoffs
	t.switches += o.switches
	t.eng = mergeEngine(t.eng, o.eng)
	t.tm.Add(&o.tm)
}

// spaces mirrors the harness's arena pool: one sync.Pool per arena size, so
// an arena is Reset when a run ends, reused by a later run, and lost to a
// garbage collection, as in the sweep.
var spaces sync.Map

func getSpace(size int, log spanLog) *mem.Space {
	if p, ok := spaces.Load(size); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			return v.(*mem.Space)
		}
	}
	var sp *mem.Space
	log.time(spanNewSpace, func() { sp = mem.NewSpace(size) })
	return sp
}

func putSpace(sp *mem.Space, log spanLog) {
	log.time(spanReset, sp.Reset)
	p, _ := spaces.LoadOrStore(sp.Size(), &sync.Pool{})
	p.(*sync.Pool).Put(sp)
}

// The helpers below restate harness.Run's private spec handling; the
// fidelity check fails the run if they ever drift from it.

func withDefaults(s harness.RunSpec) harness.RunSpec {
	if s.Repeats <= 0 {
		s.Repeats = 2
	}
	if s.CostScale == 0 {
		s.CostScale = 1
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.SpaceSize == 0 {
		s.SpaceSize = 64 << 20
	}
	if s.Threads <= 0 {
		s.Threads = 4
	}
	return s
}

func platformSpec(s harness.RunSpec) *platform.Spec {
	spec := platform.New(s.Platform)
	if s.TMCAMEntries > 0 && s.Platform == platform.POWER8 {
		spec.LoadCapacity = s.TMCAMEntries * spec.LineSize
		spec.StoreCapacity = spec.LoadCapacity
	}
	return spec
}

func policy(s harness.RunSpec) tm.Policy {
	if s.Policy != nil {
		return *s.Policy
	}
	p := tm.DefaultPolicy(s.Platform)
	if s.Platform == platform.BlueGeneQ && s.Mode == platform.LongRunning {
		p.LazySubscription = true
	}
	return p
}

// build makes one run's engine and benchmark as harness.Run does.
func build(spec harness.RunSpec, threads int, seed uint64, log spanLog) (*htm.Engine, stamp.Benchmark, error) {
	cfg := htm.Config{
		Threads:           threads,
		SpaceSize:         spec.SpaceSize,
		Seed:              seed,
		Mode:              spec.Mode,
		DisablePrefetch:   spec.DisablePrefetch,
		DisableSMTSharing: spec.DisableSMTSharing,
		ResponderWins:     spec.ResponderWins,
		CostScale:         spec.CostScale,
		Virtual:           true,
	}
	cfg.Space = getSpace(cfg.SpaceSize, log)
	var e *htm.Engine
	log.time(spanNew, func() { e = htm.New(platformSpec(spec), cfg) })
	var b stamp.Benchmark
	var err error
	log.time(spanSetup, func() {
		b, err = stamp.New(spec.Benchmark, stamp.Config{
			Scale: spec.Scale, Variant: spec.Variant, Seed: seed, ChunkStep1: spec.ChunkStep1,
		})
		if err == nil {
			b.Setup(e.Thread(0))
		}
	})
	return e, b, err
}

// release frees a run's engine and recycles its arena.
func release(e *htm.Engine, log spanLog) {
	sp := e.Space()
	log.time(spanRelease, e.Release)
	putSpace(sp, log)
}

// replayMeasure runs spec through the public calls harness.Run makes, in
// its order, with a span around each call.
func replayMeasure(spec harness.RunSpec, log spanLog) cellReplay {
	spec = withDefaults(spec)
	var out cellReplay
	seqTimes := make([]float64, 0, spec.Repeats)
	for i := 0; i < spec.Repeats; i++ {
		e, b, err := build(spec, 1, spec.Seed+uint64(i)*1009, log)
		if err != nil {
			out.err = err
			return out
		}
		e.ResetClocks()
		log.time(spanRun, func() { b.Run([]stamp.Runner{stamp.SeqRunner{T: e.Thread(0)}}) })
		cycles := e.MaxClock()
		log.time(spanValidate, func() { err = b.Validate(e.Thread(0)) })
		if err != nil {
			out.err = fmt.Errorf("sequential %s on %s: %w", spec.Benchmark, spec.Platform, err)
			return out
		}
		log.time(spanStats, func() { out.handoffs += e.SchedHandoffs() })
		release(e, log)
		out.seqCycles += cycles
		seqTimes = append(seqTimes, float64(cycles))
	}

	parTimes := make([]float64, 0, spec.Repeats)
	speedups := make([]float64, 0, spec.Repeats)
	for i := 0; i < spec.Repeats; i++ {
		e, b, err := build(spec, spec.Threads, spec.Seed+uint64(i)*1009, log)
		if err != nil {
			out.err = err
			return out
		}
		var ctl *adapt.Controller
		runners := make([]stamp.Runner, spec.Threads)
		execs := make([]*tm.Executor, spec.Threads)
		log.time(spanRuntime, func() {
			lock := tm.NewGlobalLock(e)
			pol := policy(spec)
			if spec.Adaptive {
				ctl = adapt.NewController(adapt.Config{})
			}
			for t := range runners {
				execs[t] = tm.NewExecutorConfig(e.Thread(t), lock, tm.Config{Policy: pol, Adapt: ctl})
				switch {
				case spec.UseSTM:
					runners[t] = stamp.STMRunner{X: execs[t]}
				case spec.UseHLE:
					runners[t] = stamp.HLERunner{X: execs[t]}
				default:
					runners[t] = stamp.TMRunner{X: execs[t]}
				}
			}
		})
		e.ResetStats()
		e.ResetClocks()
		log.time(spanRun, func() { b.Run(runners) })
		cycles := e.MaxClock()
		log.time(spanValidate, func() { err = b.Validate(e.Thread(0)) })
		if err != nil {
			out.err = fmt.Errorf("parallel %s on %s (%d threads): %w", spec.Benchmark, spec.Platform, spec.Threads, err)
			return out
		}
		var engStats htm.Stats
		log.time(spanStats, func() {
			var agg tm.Stats
			for _, x := range execs {
				agg.Add(&x.Stats)
			}
			out.res.TM.Add(&agg)
			engStats = e.Stats()
			out.handoffs += e.SchedHandoffs()
		})
		if ctl != nil {
			out.switches += ctl.Switches()
		}
		release(e, log)
		out.res.Engine = mergeEngine(out.res.Engine, engStats)
		out.parCycles += cycles
		parTimes = append(parTimes, float64(cycles))
		speedups = append(speedups, seqTimes[i]/float64(cycles))
	}
	out.res.SeqSeconds = stats.Mean(seqTimes)
	out.res.ParSeconds = stats.Mean(parTimes)
	out.res.Speedup = stats.Mean(speedups)
	out.eng = out.res.Engine
	out.tm = out.res.TM
	return out
}

// The tuning grids restate harness.Tune's private search space.
var (
	policyGrid = []tm.Policy{
		{LockRetry: 2, PersistentRetry: 1, TransientRetry: 4},
		{LockRetry: 4, PersistentRetry: 1, TransientRetry: 16},
		{LockRetry: 8, PersistentRetry: 2, TransientRetry: 8},
		{LockRetry: 16, PersistentRetry: 2, TransientRetry: 32},
		{LockRetry: 4, PersistentRetry: 8, TransientRetry: 16},
	}
	bgqGrid = []struct {
		retries int
		mode    platform.BGQMode
	}{
		{4, platform.ShortRunning},
		{16, platform.ShortRunning},
		{4, platform.LongRunning},
		{16, platform.LongRunning},
	}
	genomeChunks = []int{2, 9}
)

// replayTune runs harness.Tune's search (single-repeat trials over the
// grid, then the winner at the requested repeats) through replayMeasure.
func replayTune(spec harness.RunSpec, log spanLog) cellReplay {
	spec = withDefaults(spec)
	trial := spec
	trial.Repeats = 1
	var candidates []harness.RunSpec
	if spec.Platform == platform.BlueGeneQ {
		for _, g := range bgqGrid {
			c := trial
			pol := tm.DefaultPolicy(platform.BlueGeneQ)
			pol.TransientRetry = g.retries
			pol.LazySubscription = g.mode == platform.LongRunning
			c.Policy = &pol
			c.Mode = g.mode
			candidates = append(candidates, c)
		}
	} else {
		for i := range policyGrid {
			c := trial
			c.Policy = &policyGrid[i]
			candidates = append(candidates, c)
		}
	}
	if spec.Benchmark == "genome" && spec.ChunkStep1 == 0 {
		var expanded []harness.RunSpec
		for _, c := range candidates {
			for _, chunk := range genomeChunks {
				cc := c
				cc.ChunkStep1 = chunk
				expanded = append(expanded, cc)
			}
		}
		candidates = expanded
	}

	var out cellReplay
	best, bestSpeed := -1, 0.0
	for i, c := range candidates {
		r := replayMeasure(c, log)
		out.add(r.totals)
		if r.err != nil {
			out.err = r.err
			return out
		}
		if r.res.Speedup > bestSpeed {
			best, bestSpeed = i, r.res.Speedup
		}
	}
	if best < 0 {
		out.err = fmt.Errorf("tune %s: no candidate sped up", spec.Label())
		return out
	}
	win := candidates[best]
	win.Repeats = spec.Repeats
	final := replayMeasure(win, log)
	out.add(final.totals)
	out.res, out.err = final.res, final.err
	return out
}

// mergeEngine restates the harness's aggregation of engine counters.
func mergeEngine(a, b htm.Stats) htm.Stats {
	a.Begins += b.Begins
	a.Commits += b.Commits
	a.Aborts += b.Aborts
	for i := range a.AbortsByReason {
		a.AbortsByReason[i] += b.AbortsByReason[i]
	}
	a.TxLoads += b.TxLoads
	a.TxStores += b.TxStores
	a.SpecIDWaits += b.SpecIDWaits
	if b.MaxReadLines > a.MaxReadLines {
		a.MaxReadLines = b.MaxReadLines
	}
	if b.MaxWriteLines > a.MaxWriteLines {
		a.MaxWriteLines = b.MaxWriteLines
	}
	return a
}

func replayCell(c sweep.Cell, log spanLog) cellReplay {
	switch c.Kind {
	case sweep.Measure:
		return replayMeasure(c.Spec, log)
	case sweep.TuneMeasure:
		return replayTune(c.Spec, log)
	case sweep.Footprint:
		var out cellReplay
		log.time(spanCollect, func() {
			out.fp, out.err = trace.Collect(c.Bench, c.Platform, trace.Options{Scale: c.Scale, Seed: c.Seed})
		})
		return out
	}
	return cellReplay{err: fmt.Errorf("cell %s: kind %s is not replayed", c.Label(), c.Kind)}
}

// checkFidelity compares a replayed cell with the outcome the timed sweep
// computed for it through harness.Run or trace.Collect: virtual cycles and
// every engine and runtime counter must be identical.
func checkFidelity(c sweep.Cell, got cellReplay, sched *sweep.Scheduler) error {
	if got.err != nil {
		return fmt.Errorf("replay %s: %w", c.Label(), got.err)
	}
	if c.Kind == sweep.Footprint {
		want, err := sched.Collect(c.Bench, c.Platform, trace.Options{Scale: c.Scale, Seed: c.Seed})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got.fp, want) {
			return fmt.Errorf("replay %s: footprint %+v, trace.Collect gave %+v", c.Label(), got.fp, want)
		}
		return nil
	}
	want, err := sched.Measure(c.Spec, c.Kind == sweep.TuneMeasure)
	if err != nil {
		return err
	}
	switch {
	case got.res.SeqSeconds != want.SeqSeconds || got.res.ParSeconds != want.ParSeconds:
		return fmt.Errorf("replay %s: cycles seq %v par %v, harness.Run gave seq %v par %v",
			c.Label(), got.res.SeqSeconds, got.res.ParSeconds, want.SeqSeconds, want.ParSeconds)
	case !reflect.DeepEqual(got.res.Engine, want.Engine):
		return fmt.Errorf("replay %s: htm.Stats %+v, harness.Run gave %+v", c.Label(), got.res.Engine, want.Engine)
	case !reflect.DeepEqual(got.res.TM, want.TM):
		return fmt.Errorf("replay %s: tm.Stats %+v, harness.Run gave %+v", c.Label(), got.res.TM, want.TM)
	}
	return nil
}

// cacheRecord mirrors the sweep's on-disk record.
type cacheRecord struct {
	Cell      sweep.Cell       `json:"cell"`
	Result    *harness.Result  `json:"result,omitempty"`
	Footprint *trace.Footprint `json:"footprint,omitempty"`
	Seconds   float64          `json:"seconds,omitempty"`
}

// cacheReplay holds the timings of re-storing every record of a sweep.
type cacheReplay struct {
	putUS, getUS []float64
	bytes        int64
	cellMS       []float64 // compute time the sweep recorded per measure cell
}

// replayCache reads every record the timed sweep wrote and replays it
// through cache.Key/Store.Put/Store.Get into a fresh store.
func replayCache(s *sweepSetup, root string) (cacheReplay, error) {
	var out cacheReplay
	dir := filepath.Join(root, "cache-replay")
	dst, err := cache.Open(dir)
	if err != nil {
		return out, err
	}
	for _, c := range s.cells {
		key, err := c.Key()
		if err != nil {
			return out, err
		}
		var rec cacheRecord
		if ok, err := s.store.Get(key, &rec); err != nil || !ok {
			return out, fmt.Errorf("cell %s: sweep wrote no cache record (%v)", c.Label(), err)
		}
		if c.Kind == sweep.Measure {
			out.cellMS = append(out.cellMS, rec.Seconds*1000)
		}

		t0 := time.Now()
		k, err := cache.Key(sweep.ResultsVersion, rec.Cell)
		if err == nil {
			err = dst.Put(k, rec)
		}
		out.putUS = append(out.putUS, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return out, err
		}
		t0 = time.Now()
		var back cacheRecord
		ok, err := dst.Get(k, &back)
		out.getUS = append(out.getUS, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil || !ok || !reflect.DeepEqual(back, rec) {
			return out, fmt.Errorf("cell %s: cache round trip failed (%v)", c.Label(), err)
		}
	}
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			out.bytes += info.Size()
		}
		return err
	})
	return out, err
}

// traced times one sweep with tracing off, then replays its cells with
// spans under a CPU profile, and reports the per-layer metrics.
func traced(opts options, root string, stderr io.Writer) (result, []sweepRun, error) {
	base, err := sweepOnce(opts, root)
	if err != nil {
		return result{}, nil, err
	}
	defer base.setup.close()
	cr, err := replayCache(base.setup, root)
	if err != nil {
		return result{}, nil, err
	}

	cells := base.setup.cells
	rr, err := profiledReplay(opts, cells)
	if err != nil {
		return result{}, nil, err
	}
	spans := rr.spans

	var sum totals
	for i, c := range cells {
		if err := checkFidelity(c, rr.replays[i], base.setup.sched); err != nil {
			return result{}, nil, fmt.Errorf("fidelity: %w", err)
		}
		sum.add(rr.replays[i].totals)
	}
	eng := sum.eng

	shares, err := cpuShares(rr.samples)
	if err != nil {
		return result{}, nil, err
	}
	cpuNS := float64(rr.cpu.Nanoseconds())
	accesses := eng.TxLoads + eng.TxStores
	perUnit := func(share float64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return share * cpuNS / float64(n)
	}
	commitRatio := 0.0
	if eng.Begins > 0 {
		commitRatio = float64(eng.Commits) / float64(eng.Begins)
	}
	newMS := spans.totalMS(spanNew)
	resetMS := spans.totalMS(spanReset)
	m := map[string]metric{
		"sweep.prewarm_s":         {base.sum.Elapsed.Seconds(), "s"},
		"sweep.render_s":          {base.render.Seconds(), "s"},
		"sweep.steals":            {float64(base.sum.Steals), "count"},
		"cache.put_us_p50":        {median(cr.putUS), "us"},
		"cache.get_us_p50":        {median(cr.getUS), "us"},
		"cache.bytes_written":     {float64(cr.bytes), "bytes"},
		"harness.cell_ms_p50":     {median(cr.cellMS), "ms"},
		"harness.cell_ms_max":     {maxOf(cr.cellMS), "ms"},
		"htm.new_ms_total":        {newMS, "ms"},
		"htm.ns_per_access":       {perUnit(shares["htm"], accesses), "ns"},
		"htm.tx_begins":           {float64(eng.Begins), "count"},
		"htm.tx_commits":          {float64(eng.Commits), "count"},
		"htm.commit_ratio":        {commitRatio, "ratio"},
		"htm.tx_loads":            {float64(eng.TxLoads), "count"},
		"htm.tx_stores":           {float64(eng.TxStores), "count"},
		"vsched.handoffs":         {float64(sum.handoffs), "count"},
		"vsched.ns_per_handoff":   {perUnit(shares["vsched"], sum.handoffs), "ns"},
		"mem.newspace_ms_total":   {spans.totalMS(spanNewSpace), "ms"},
		"mem.reset_ms_total":      {resetMS, "ms"},
		"engine_setup.wall_share": {(newMS + resetMS) / 1000 / base.wall.Seconds(), "ratio"},
		"stamp.setup_ms_total":    {spans.totalMS(spanSetup), "ms"},
		"stamp.validate_ms_total": {spans.totalMS(spanValidate), "ms"},
		"tm.serialization_pct":    {sum.tm.SerializationRatio(), "%"},
		"adapt.mode_switches":     {float64(sum.switches), "count"},
		"features.run_s":          {spans.totalMS(spanCLQ, spanTLS) / 1000, "s"},
		"sim.seq_cycles_total":    {float64(sum.seqCycles), "cycles"},
		"sim.par_cycles_total":    {float64(sum.parCycles), "cycles"},
		"trace.overhead_frac":     {rr.wall.Seconds()/base.wall.Seconds() - 1, "ratio"},
		"trace.replay_cpu_s":      {rr.cpu.Seconds(), "s"},
		"runtime.gc_cpu_share":    {shares["runtime.gc"], "ratio"},
		"runtime.other_cpu_share": {shares["runtime.other"], "ratio"},
		"runtime.max_rss_mb":      {maxRSSMB(), "MB"},
	}
	for _, l := range layers {
		if l != "runtime.gc" && l != "runtime.other" {
			m[l+".cpu_share"] = metric{shares[l], "ratio"}
		}
	}
	printSpans(stderr, spans)
	return result{Correct: true, Metrics: m}, []sweepRun{base}, nil
}

// replayRun is the outcome of the profiled replay.
type replayRun struct {
	replays []cellReplay // by cell index
	spans   spanLog
	wall    time.Duration
	cpu     time.Duration
	samples []sample
}

// profiledReplay replays cells on opts.jobs workers, then the features runs
// the workload renders inline, all under one CPU profile.
func profiledReplay(opts options, cells []sweep.Cell) (replayRun, error) {
	rr := replayRun{replays: make([]cellReplay, len(cells)), spans: spanLog{}}
	logs := make([]spanLog, opts.jobs)
	var prof bytes.Buffer
	quiesce()
	cpu0 := cpuTime()
	t0 := time.Now()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return rr, err
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := range logs {
		logs[w] = spanLog{}
		wg.Add(1)
		go func(log spanLog) {
			defer wg.Done()
			for i := range next {
				rr.replays[i] = replayCell(cells[i], log)
			}
		}(logs[w])
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	var err error
	for _, exp := range opts.workload.exps {
		switch {
		case exp == "fig6" && err == nil:
			rr.spans.time(spanCLQ, func() { _, err = features.RunCLQ(features.CLQOptions{Seed: opts.seed}) })
		case exp == "fig9" && err == nil:
			rr.spans.time(spanTLS, func() { _, err = features.RunTLS(features.TLSOptions{Seed: opts.seed}) })
		}
	}
	pprof.StopCPUProfile()
	rr.wall = time.Since(t0)
	rr.cpu = cpuTime() - cpu0
	if err != nil {
		return rr, err
	}
	for _, l := range logs {
		for k, v := range l {
			rr.spans[k] = append(rr.spans[k], v...)
		}
	}
	rr.samples, err = parseCPUProfile(prof.Bytes())
	return rr, err
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// printSpans writes a per-span summary for a human reader.
func printSpans(w io.Writer, spans spanLog) {
	names := make([]string, 0, len(spans))
	for n := range spans {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "span %-18s calls=%-6d total=%.1fms\n", n, len(spans[n]), spans.totalMS(n))
	}
}
