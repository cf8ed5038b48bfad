// Command perfbench is htmcmp's end-to-end benchmark. It runs one workload
// (a sweep of the paper's experiments) through the same public calls
// cmd/htmbench makes, checks the rendered tables, and prints its metrics as
// one JSON object on the last line of standard output.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload fig23-sim --seed 42 --seconds 30 --trace 0
//
// With --trace 0 it times whole sweeps and reports the end-to-end metrics;
// with --trace 1 it times one sweep, replays every cell with a span around
// each layer call under a CPU profile, and reports the per-layer metrics.
// BENCHMARK.md lists the workloads and metrics.
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"htmcmp/internal/cache"
	"htmcmp/internal/harness"
	"htmcmp/internal/harness/sweep"
)

// setupShare is the share of a run spent timing set-ups. A set-up takes
// well under a millisecond to a few milliseconds, so one burst of them
// samples the host at a single instant; the benchmark instead times them
// in blocks before every sweep and reports the median over all blocks, so
// setup_s sees the same host conditions as the sweeps.
const setupShare = 0.05

// setupWarmup set-ups start every block and are not counted. Set-ups are
// timed warm, back to back, because the first one after a collection
// also pays for page faults and cold caches, whose cost varies with the
// host far more than the set-up's own work does.
const setupWarmup = 5

// scratchRoot holds every file the benchmark writes, inside the checkout.
const scratchRoot = ".bench_build/perfbench-tmp"

//go:embed digests.json
var digestsJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	jobs     int
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: fig23-sim, capacity-sim or all-test")
	seed := fl.Uint64("seed", 42, "workload seed")
	seconds := fl.Float64("seconds", 30, "how long to keep repeating the timed sweep")
	traceFlag := fl.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced replay")
	jobs := fl.Int("jobs", 0, "sweep workers (default: 1 for fig23-sim, nproc otherwise; at most nproc)")
	if err := fl.Parse(args); err != nil {
		return options{}, err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return options{}, fmt.Errorf("unknown workload %q", *name)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return options{}, fmt.Errorf("-trace must be 0 or 1, not %d", *traceFlag)
	}
	if *seconds <= 0 {
		return options{}, fmt.Errorf("-seconds must be positive")
	}
	nproc := runtime.NumCPU()
	j := *jobs
	switch {
	case j == 0 && w.serial:
		j = 1
	case j == 0:
		j = nproc
	case j < 0 || j > nproc:
		return options{}, fmt.Errorf("-jobs %d is outside 1..nproc (%d)", j, nproc)
	}
	if runtime.GOMAXPROCS(0) > nproc {
		return options{}, fmt.Errorf("GOMAXPROCS %d exceeds nproc %d", runtime.GOMAXPROCS(0), nproc)
	}
	return options{workload: w, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, jobs: j}, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	root, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(root)

	var source string
	checker, err := newTableChecker(opts)
	if err == nil {
		source, err = sourceDigest()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var res result
	var reps []sweepRun
	if opts.trace {
		res, reps, err = traced(opts, root, stderr)
	} else {
		res, reps, err = timed(opts, root, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	digest, tableErr := checker.check(reps)
	if tableErr != nil {
		fmt.Fprintf(stderr, "perfbench: table check: %v\n", tableErr)
		res.Correct = false
	}
	for _, r := range reps {
		res.Attempted += r.sum.Cells
		res.Failed += r.sum.Failed
	}
	if res.Attempted == 0 {
		res.Correct = false
	}

	row := rowMeta(opts, len(reps), digest, source, res)
	if line, err := json.Marshal(map[string]any{"row": row}); err == nil {
		fmt.Fprintln(stdout, string(line))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// sweepRun is the outcome of one timed sweep.
type sweepRun struct {
	setup    *sweepSetup
	sum      sweep.Summary
	tables   string
	wall     time.Duration
	cpu      time.Duration
	render   time.Duration
	allocMB  float64
	accesses uint64
}

// sweepSetup is the state the set-up phase builds: a fresh cache directory,
// the planned cells and the scheduler that will execute them.
type sweepSetup struct {
	dir   string
	store *cache.Store
	opts  harness.Options
	cells []sweep.Cell
	sched *sweep.Scheduler
}

// harnessOptions are the options htmbench builds from its default flags.
func harnessOptions(opts options) harness.Options {
	return harness.Options{Scale: opts.workload.scale, Repeats: 2, Seed: opts.seed}
}

// newSetup opens the cache at dir, runs the planning pass and builds the
// scheduler, with the same settings as htmbench's defaults. Given a fresh
// directory, every cell of the later sweep computes and is written to the
// cache.
func newSetup(opts options, dir string) (*sweepSetup, error) {
	store, err := cache.Open(dir)
	if err != nil {
		return nil, err
	}
	ho := harnessOptions(opts)
	plan := sweep.NewPlan()
	planOpts := ho
	planOpts.Exec = plan
	for _, exp := range opts.workload.exps {
		if !hasCells(exp) {
			continue
		}
		if err := renderExperiment(exp, planOpts, plan, io.Discard); err != nil {
			return nil, fmt.Errorf("planning %w", err)
		}
	}
	sched := sweep.New(sweep.Config{
		Jobs:    opts.jobs,
		Cache:   store,
		Resume:  true,
		Timeout: 30 * time.Minute,
		Retries: 2,
		Seed:    42,
	})
	return &sweepSetup{dir: dir, store: store, opts: ho, cells: plan.Cells(), sched: sched}, nil
}

func (s *sweepSetup) close() { os.RemoveAll(s.dir) }

// quiesce collects garbage twice, which also empties the sync.Pools of
// engine line tables and arenas, so every timed phase starts from the same
// state as a fresh process.
func quiesce() {
	runtime.GC()
	runtime.GC()
}

// sweepOnce runs one complete sweep, timed from the start of set-up to the
// last table rendered, as htmbench would with a fresh cache directory.
func sweepOnce(opts options, root string) (sweepRun, error) {
	quiesce()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	cpu0 := cpuTime()
	t0 := time.Now()

	dir, err := os.MkdirTemp(root, "cache-")
	if err != nil {
		return sweepRun{}, err
	}
	s, err := newSetup(opts, dir)
	if err != nil {
		return sweepRun{}, err
	}
	sum := s.sched.Prewarm(s.cells)
	tr := time.Now()
	var buf bytes.Buffer
	renderOpts := s.opts
	renderOpts.Exec = s.sched
	for _, exp := range opts.workload.exps {
		if err := renderExperiment(exp, renderOpts, s.sched, &buf); err != nil {
			return sweepRun{}, fmt.Errorf("render %w (sweep %s)", err, sum)
		}
	}
	r := sweepRun{
		setup:  s,
		sum:    sum,
		tables: buf.String(),
		wall:   time.Since(t0),
		cpu:    cpuTime() - cpu0,
		render: time.Since(tr),
	}
	runtime.ReadMemStats(&ms)
	r.allocMB = float64(ms.TotalAlloc-alloc0) / (1 << 20)
	for _, c := range s.cells {
		if c.Kind == sweep.Footprint {
			continue
		}
		res, err := s.sched.Measure(c.Spec, c.Kind == sweep.TuneMeasure)
		if err != nil {
			return sweepRun{}, err
		}
		r.accesses += res.Engine.TxLoads + res.Engine.TxStores
	}
	return r, nil
}

// timedSetups runs a block of set-ups: it collects garbage, runs
// setupWarmup untimed set-ups, then times set-ups back to back for about d
// and at least three times, appending their times to setups. The set-ups
// share one empty cache directory, made before the timer starts: a set-up
// writes nothing to the cache, and the filesystem's mkdir and rmdir vary
// with the host more than anything the set-up itself does.
func timedSetups(opts options, root string, d time.Duration, setups []float64) ([]float64, error) {
	dir, err := os.MkdirTemp(root, "cache-")
	if err != nil {
		return setups, err
	}
	defer os.RemoveAll(dir)
	quiesce()
	start := time.Now()
	for n := -setupWarmup; n < 3 || time.Since(start) < d; n++ {
		t0 := time.Now()
		if _, err := newSetup(opts, dir); err != nil {
			return setups, err
		}
		if n < 0 {
			start = time.Now()
		} else {
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	return setups, nil
}

// timed reports the end-to-end metrics. It repeats a block of set-ups
// followed by a whole sweep while the next pair is expected to end within
// opts.seconds (at least once), and reports medians over all set-ups and
// all sweeps.
func timed(opts options, root string, stderr io.Writer) (result, []sweepRun, error) {
	var setups []float64
	var err error
	block := time.Duration(opts.seconds * setupShare * float64(time.Second))

	var reps []sweepRun
	start := time.Now()
	var walls, cpus, allocs, rates []float64
	for {
		n := len(setups)
		if setups, err = timedSetups(opts, root, block, setups); err != nil {
			return result{}, reps, err
		}
		fmt.Fprintf(stderr, "set-up block %d: median %.6fs over %d\n",
			len(reps)+1, median(setups[n:]), len(setups)-n)
		r, err := sweepOnce(opts, root)
		if err != nil {
			return result{}, reps, err
		}
		r.setup.close()
		reps = append(reps, r)
		fmt.Fprintf(stderr, "sweep %d: wall %.3fs cpu %.3fs alloc %.0fMB (%s)\n",
			len(reps), r.wall.Seconds(), r.cpu.Seconds(), r.allocMB, r.sum)
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		allocs = append(allocs, r.allocMB)
		rates = append(rates, float64(r.accesses)/r.wall.Seconds())
		if time.Since(start).Seconds()+block.Seconds()+median(walls) > opts.seconds {
			break
		}
	}
	fmt.Fprintf(stderr, "set-up: median %.6fs over %d (min %.6fs, max %.6fs)\n",
		median(setups), len(setups), minOf(setups), maxOf(setups))
	return result{
		Correct: true,
		Metrics: map[string]metric{
			"wall_s":             {median(walls), "s"},
			"cpu_s":              {median(cpus), "s"},
			"setup_s":            {median(setups), "s"},
			"sim_accesses_per_s": {median(rates), "1/s"},
			"alloc_mb":           {median(allocs), "MB"},
		},
	}, reps, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tableChecker is the correctness gate on rendered tables.
type tableChecker struct {
	// golden, when set, is results_sim.txt: the seed-42 tables of a golden
	// workload must appear in it verbatim.
	golden string
	// want is the digest recorded for this workload and seed, if any.
	want string
}

func newTableChecker(opts options) (*tableChecker, error) {
	c := &tableChecker{}
	if opts.workload.golden && opts.seed == 42 {
		b, err := os.ReadFile("results_sim.txt")
		if err != nil {
			return nil, fmt.Errorf("golden tables: %w", err)
		}
		c.golden = string(b)
	}
	var recorded map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	c.want = recorded[opts.workload.name][strconv.FormatUint(opts.seed, 10)]
	return c, nil
}

// check verifies every sweep's tables and returns their digest. The
// simulator is deterministic, so all sweeps of a run must render the same
// bytes; those bytes must match the recorded digest where one exists and,
// for a golden workload at seed 42, appear verbatim in results_sim.txt.
func (c *tableChecker) check(reps []sweepRun) (string, error) {
	if len(reps) == 0 {
		return "", fmt.Errorf("no sweep completed")
	}
	tables := reps[0].tables
	sum := sha256.Sum256([]byte(tables))
	digest := hex.EncodeToString(sum[:])
	for i, r := range reps[1:] {
		if r.tables != tables {
			return digest, fmt.Errorf("sweep %d rendered different tables than sweep 0", i+1)
		}
	}
	if c.golden != "" && !strings.Contains(c.golden, tables) {
		return digest, fmt.Errorf("tables are not a section of results_sim.txt")
	}
	if c.want != "" && c.want != digest {
		return digest, fmt.Errorf("tables digest %s, recorded %s", digest, c.want)
	}
	return digest, nil
}

// sourceDigest hashes the simulator's sources (go.mod and internal/), so a
// result row names the code it measured even where no commit is known.
func sourceDigest() (string, error) {
	h := sha256.New()
	add := func(path string) error {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	}
	if err := add("go.mod"); err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		return add(path)
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// rowMeta is the provenance stamped on every result row.
func rowMeta(opts options, reps int, digest, source string, res result) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
		for _, s := range info.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "-dirty"
			}
		}
	}
	failRatio := 0.0
	if res.Attempted > 0 {
		failRatio = float64(res.Failed) / float64(res.Attempted)
	}
	return map[string]any{
		"workload":        opts.workload.name,
		"seed":            opts.seed,
		"trace":           opts.trace,
		"jobs":            opts.jobs,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"commit":          commit,
		"source_sha256":   source,
		"sweeps":          reps,
		"tables_sha256":   digest,
		"cell_fail_ratio": failRatio,
	}
}
