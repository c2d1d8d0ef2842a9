package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"rajaperf/internal/analysis"
	"rajaperf/internal/caliper"
	"rajaperf/internal/campaign"
	"rajaperf/internal/fabric"
	"rajaperf/internal/frame"
	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
	"rajaperf/internal/resilience"
	"rajaperf/internal/suite"
	"rajaperf/internal/telemetry"
	"rajaperf/internal/thicket"
)

// Workload names.
const (
	hostExec    = "host-exec"
	modelSweep  = "model-sweep"
	fabricSweep = "fabric-sweep"
)

var workloads = []string{hostExec, modelSweep, fabricSweep}

// config is one benchmark run's inputs.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64 // measurement window
	Trace    bool
	Dir      string // scratch space; every campaign writes below it

	HostSize   int // host-exec node problem size
	SweepSizes int // number of seeded node sizes in the sweeps
}

// defaultConfig returns the sizes BENCHMARK.json's figures were taken at.
// host-exec at 65,536 elements keeps a kernel's arrays mostly in L2 and
// one executed campaign near 2.5 s on a 2-CPU host; 5 sweep sizes give 240
// specs, so spec_p95_ms has twelve samples beyond it in every campaign.
func defaultConfig() config {
	return config{HostSize: 65_536, SweepSizes: 5}
}

// hostVariants are the executed variants of host-exec.
var hostVariants = []kernels.VariantID{kernels.BaseSeq, kernels.RAJASeq, kernels.RAJAOpenMP}

// runners is the orchestrator's concurrency: host-exec runs one spec at a
// time on a 2-lane pool, the sweeps run two specs (or two fabric workers)
// at once. Either way at most two runners share the host's 2 CPUs.
func runners(w string) int {
	if w == hostExec {
		return 1
	}
	return 2
}

// makePlan generates the workload's campaign plan from the seed. The
// program receives only this plan. host-exec: the seed permutes the
// kernel order. Sweeps: the seed draws the node sizes and permutes every
// axis, which permutes the campaign's spec order.
func makePlan(cfg config) campaign.Plan {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5eed))
	if cfg.Workload == hostExec {
		names := kernels.Names()
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		vs := make([]string, len(hostVariants))
		for i, v := range hostVariants {
			vs[i] = v.String()
		}
		return campaign.Plan{
			Machines: []string{machine.Host().Shorthand},
			Variants: vs,
			Sizes:    []int{cfg.HostSize},
			Workers:  2,
			Kernels:  names,
			Execute:  true,
		}
	}
	var ms []string
	for _, m := range machine.Paper() {
		ms = append(ms, m.Shorthand)
	}
	vs := []string{"Base_Seq", "RAJA_Seq", "Base_OpenMP", "RAJA_OpenMP", "Base_GPU", "RAJA_GPU"}
	blocks := []int{128, 256, 512, 1024}
	// Node sizes: powers of two from 1M up, each moved by a seeded ±2%
	// (rounded to 1000), so every seed asks for nearly the same work.
	var sizes []int
	for i := 0; i < cfg.SweepSizes; i++ {
		base := 1_000_000 << i
		jitter := 1 + 0.04*(rng.Float64()-0.5)
		sizes = append(sizes, int(float64(base)*jitter)/1000*1000)
	}
	shuffle := func(n int, swap func(i, j int)) { rng.Shuffle(n, swap) }
	shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
	shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	return campaign.Plan{Machines: ms, Variants: vs, GPUBlocks: blocks, Sizes: sizes}
}

// iteration is what one pass of the closed loop measured: set up, run
// one campaign, analyze its directory, regenerate the paper's figures.
type iteration struct {
	Traced                            bool
	Setup, Campaign, Analyze, Figures float64   // seconds; Analyze is the median repeat
	AnalyzeRepeats                    []float64 // seconds; see analyzeSlots
	SetupProbes                       []float64 // seconds; see probeSetup
	SpecMS                            []float64
	Ratio                             float64 // raja_base_ratio_geomean (host-exec)
	Attempted, Failed                 int
	Checks                            checks
	WorkerRSSKB                       int64
	Layer                             map[string]float64
}

// wall is the iteration's measured time, compared between traced and
// untraced iterations for trace_overhead_frac.
func (it *iteration) wall() float64 { return it.Setup + it.Campaign + it.Analyze + it.Figures }

// bench holds what iterations of one run share.
type bench struct {
	cfg   config
	ref   map[string]modelDigest // fabric-sweep: the local reference run
	spans *spanLog
	n     int
}

// reference runs the plan once in-process, untimed and unrecorded: the
// oracle fabric-sweep's modeled metrics must match bit for bit.
func (b *bench) reference(ctx context.Context) error {
	res, err := campaign.Run(ctx, makePlan(b.cfg), campaign.Options{
		Workers: runners(b.cfg.Workload), Retain: true, Metrics: &telemetry.Registry{},
	})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if err := res.Err(); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	b.ref = make(map[string]modelDigest, len(res.Specs))
	for _, sr := range res.Specs {
		b.ref[sr.Spec.ID()] = digest(sr.Profile)
	}
	return nil
}

// setupProbes is the number of extra set-ups an untraced pass measures
// after its timed phases, so setup_s is a median over five samples per
// pass rather than one. A local set-up of a millisecond or two is mostly
// fsync latency, which one sample per pass measures poorly.
const setupProbes = 4

// passSetup is what a pass's set-up made: the campaign's plan, output
// directory, registry, options and executor, and for the fabric the fleet.
type passSetup struct {
	plan  campaign.Plan
	specs []campaign.RunSpec
	dir   string
	reg   *telemetry.Registry
	opts  campaign.Options
	te    *timedExec
	fl    *fleet
}

// release dismisses the fleet, if any, and removes the output directory.
// It may be called more than once.
func (ps *passSetup) release() {
	if ps.fl != nil {
		ps.fl.close()
	}
	os.RemoveAll(ps.dir)
}

// setUp is the set-up of a pass: plan expansion, output directory,
// registry, executor and, for the fabric, the worker fleet up to
// rendezvous. Its time runs on to the campaign's first Submit.
func (b *bench) setUp(ctx context.Context, sp *spanLog, setupSpan int) (*passSetup, float64, error) {
	plan := makePlan(b.cfg)
	specs, err := plan.Specs()
	if err != nil {
		return nil, 0, err
	}
	ps := &passSetup{plan: plan, specs: specs, dir: filepath.Join(b.cfg.Dir, "iter"+strconv.Itoa(b.n))}
	b.n++
	if err := os.MkdirAll(ps.dir, 0o755); err != nil {
		return nil, 0, err
	}
	ps.reg = &telemetry.Registry{}
	ps.opts = campaign.Options{
		OutDir: ps.dir, Workers: runners(b.cfg.Workload), Metrics: ps.reg, Campaign: ps.dir,
	}
	if b.cfg.Workload == hostExec {
		ps.opts.PoolLanes = 2
	}
	ps.te = newTimedExec(sp, b.cfg.Workload == fabricSweep)
	var rendezvous float64
	if b.cfg.Workload == fabricSweep {
		rv := time.Now()
		if ps.fl, err = startFleet(ctx, ps.dir, ps.reg, runners(b.cfg.Workload)); err != nil {
			os.RemoveAll(ps.dir)
			return nil, 0, err
		}
		rendezvous = time.Since(rv).Seconds()
		sp.add(span{Parent: setupSpan, Name: "fabric.rendezvous", Layer: "fabric", Start: rv, End: time.Now()})
		ps.te.inner = ps.fl.coord
	} else {
		ps.te.inner = campaign.NewLocalExecutor(ps.opts)
	}
	ps.opts.Executor = ps.te
	ps.opts.Progress = ps.te.progress
	return ps, rendezvous, nil
}

// probeSetup measures one more set-up: it sets up as a pass does, starts
// the campaign, and abandons it at the first Submit, which runs nothing.
func (b *bench) probeSetup(ctx context.Context) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	ps, _, err := b.setUp(ctx, nil, 0)
	if err != nil {
		return 0, err
	}
	defer ps.release()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ps.te.abandon = cancel
	campaign.Run(cctx, ps.plan, ps.opts) // canceled at the first Submit
	first := ps.te.firstSubmit()
	if first.IsZero() {
		return 0, errors.New("set-up probe: campaign submitted no spec")
	}
	return first.Sub(t0).Seconds(), nil
}

// iterate runs one pass of the loop. With traced set it records spans and
// afterwards runs the per-layer passes, which lie outside the pass's
// measured time; without, it afterwards measures the set-up probes.
func (b *bench) iterate(ctx context.Context, traced bool) (*iteration, error) {
	var sp *spanLog
	if traced {
		sp = b.spans
	}
	it := &iteration{Traced: traced, Layer: map[string]float64{}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	firstSpan := sp.count() + 1

	// Each timed phase starts from a collected heap, as it would in a
	// fresh process, so one phase's garbage is not charged to the next.
	runtime.GC()
	t0 := time.Now()
	root := sp.begin("iteration", "bench", 0, "", 0)
	setupSpan := sp.begin("setup", "setup", root, "", 0)
	ps, rendezvous, err := b.setUp(ctx, sp, setupSpan)
	if err != nil {
		return nil, err
	}
	defer ps.release()
	plan, specs, dir, reg, opts, te, fl := ps.plan, ps.specs, ps.dir, ps.reg, ps.opts, ps.te, ps.fl
	if fl != nil {
		it.Layer["fabric.rendezvous_s"] = rendezvous
	}

	// Campaign: Run until the manifest is durable; the fabric's also
	// dismisses the fleet and merges the shard WALs.
	before := reg.Snapshot()
	cStart := time.Now()
	runSpan := sp.begin("campaign.Run", "campaign", root, "", 0)
	te.parent = runSpan
	res, runErr := campaign.Run(ctx, plan, opts)
	sp.end(runSpan)
	if fl != nil {
		fin := time.Now()
		finSpan := sp.begin("fabric.finalize", "fabric", root, "", 0)
		fl.close()
		_, _, ferr := campaign.FinalizeShards(dir)
		sp.end(finSpan)
		it.Layer["fabric.finalize_ms"] = ms(time.Since(fin))
		it.WorkerRSSKB = fl.rssKB
		if runErr == nil && ferr != nil {
			runErr = fmt.Errorf("finalize shards: %w", ferr)
		}
	}
	it.Campaign = time.Since(cStart).Seconds()
	if runErr != nil {
		return nil, runErr
	}
	delta := reg.Snapshot().Sub(before)
	first := te.firstSubmit()
	if first.IsZero() {
		return nil, errors.New("campaign submitted no spec")
	}
	it.Setup = first.Sub(t0).Seconds()
	sp.endAt(setupSpan, first)

	// Outcomes: a spec counts as failed unless done; a done spec whose
	// profile is invalid or records failed kernels also counts.
	man, err := campaign.LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	for _, sr := range res.Specs {
		it.Attempted++
		if sr.Status != campaign.StatusDone || man.Entries[sr.Spec.ID()].Status != campaign.StatusDone {
			it.Failed++
		}
	}

	// Analyze: the rajaperf-analyze path over the campaign directory. A
	// traced pass keeps one window's median repeat and its spans; an
	// untraced pass takes its first slot here and the rest later.
	minReps, window := 1, slotWindow
	if traced {
		minReps, window = 3, tracedWindow
	}
	an, reps, err := analyzeMedian(dir, b.cfg.Workload, sp, root, minReps, window)
	if err != nil {
		return nil, err
	}
	it.AnalyzeRepeats = reps
	it.Ratio = an.ratio
	addSuiteSpans(sp, te, an.profiles)
	for k, v := range an.layer {
		it.Layer[k] = v
	}
	if missing := len(specs) - len(an.profiles); missing > 0 {
		it.Failed += missing
	}
	for _, p := range an.profiles {
		kf, _ := numMeta(p.Metadata, "kernels_failed")
		if p.Validate() != nil || kf > 0 {
			it.Failed++
		}
	}
	switch b.cfg.Workload {
	case hostExec:
		it.Checks.add(checkChecksums(an.profiles))
	case fabricSweep:
		it.Checks.add(checkModelIdentity(an.profiles, b.ref))
	}
	it.Checks.add(checkTMA(an.profiles))

	// Figures: the rajaperf-experiments -exp all path.
	runtime.GC()
	fStart := time.Now()
	figSpan := sp.begin("figures", "analysis", root, "", 0)
	fig, err := figures(sp, figSpan)
	sp.end(figSpan)
	if err != nil {
		return nil, err
	}
	it.Figures = time.Since(fStart).Seconds()
	it.Checks.add(fig.checks)
	for k, v := range fig.layer {
		it.Layer[k] = v
	}
	sp.end(root)
	runtime.ReadMemStats(&ms1)
	if !traced {
		if err := b.analyzeSlot(it, dir); err != nil {
			return nil, err
		}
	}
	it.Analyze = median(it.AnalyzeRepeats)

	b.layerFromRun(it, te, an, delta, specs)
	it.Layer["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	it.Layer["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	if traced {
		for layer, s := range selfTimes(sp.snapshot(), firstSpan) {
			if layer != "bench" {
				it.Layer["self_s."+layer] = s
			}
		}
		if err := b.layerPasses(ctx, it, plan, specs[0], an, dir); err != nil {
			return nil, err
		}
		return it, nil
	}
	// The pass's profiles are flushed first, so a probe's fsync does not
	// flush them too. Analyze slots follow the probes while the pass's
	// budget lasts.
	if err := syncTree(dir); err != nil {
		return nil, err
	}
	for range setupProbes {
		s, err := b.probeSetup(ctx)
		if err != nil {
			return nil, err
		}
		it.SetupProbes = append(it.SetupProbes, s)
		if err := b.analyzeSlot(it, dir); err != nil {
			return nil, err
		}
	}
	it.Analyze = median(it.AnalyzeRepeats)
	return it, nil
}

// Analyze sampling. The host's speed changes from one second to the next,
// and one window of repeats measures one moment of it. So an untraced
// pass analyzes in slots spread over the pass: after the campaign, after
// the figures and after each set-up probe, each slot at least one repeat
// and slotWindow long, until the pass has spent analyzeBudget. host-exec's
// analysis takes a few milliseconds and fills all six slots; a sweep's
// takes a few tenths of a second and fills three. analyze_s is the median
// of every repeat of the run's untraced passes.
const (
	slotWindow    = 40 * time.Millisecond
	analyzeBudget = 1.0 // seconds per pass
	tracedWindow  = 250 * time.Millisecond
)

// analyzeSlot runs one more analyze slot over dir and adds its repeats to
// the pass, unless the pass has used its analyze budget.
func (b *bench) analyzeSlot(it *iteration, dir string) error {
	var spent float64
	for _, r := range it.AnalyzeRepeats {
		spent += r
	}
	if spent >= analyzeBudget {
		return nil
	}
	_, reps, err := analyzeMedian(dir, b.cfg.Workload, nil, 0, 1, slotWindow)
	it.AnalyzeRepeats = append(it.AnalyzeRepeats, reps...)
	return err
}

// syncTree flushes every file and directory below dir to disk.
func syncTree(dir string) error {
	return filepath.WalkDir(dir, func(path string, _ fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	})
}

// layerFromRun derives the per-layer metrics the campaign's own outputs
// already hold: registry deltas, executor timings and profile contents.
func (b *bench) layerFromRun(it *iteration, te *timedExec, an *analysisResult, delta telemetry.Snapshot, specs []campaign.RunSpec) {
	L := it.Layer
	L["raja.dispatches"] = counterSum(delta, "raja.pool.dispatches")
	L["raja.spawn_fallbacks"] = counterSum(delta, "raja.pool.spawn_fallbacks")

	te.mu.Lock()
	var submit, book []float64
	var busy time.Duration
	submitByID := make(map[string]float64, len(te.submits))
	for id, r := range te.submits {
		d := r.end.Sub(r.start)
		busy += d
		submit = append(submit, ms(d))
		submitByID[id] = ms(d)
		if !r.durable.IsZero() {
			it.SpecMS = append(it.SpecMS, ms(r.durable.Sub(r.start)))
			book = append(book, ms(r.durable.Sub(r.end)))
		}
	}
	te.mu.Unlock()

	prefix := "campaign."
	if b.cfg.Workload == fabricSweep {
		prefix = "fabric."
	}
	L[prefix+"submit_ms_p50"] = quantile(submit, 0.5)
	L[prefix+"submit_ms_p95"] = quantile(submit, 0.95)
	L["campaign.bookkeeping_ms_p50"] = quantile(book, 0.5)
	L["campaign.wal_append_us_p50"] = histQuantile(delta, "campaign.wal.append_ns", 0.5) / 1e3
	L["campaign.wal.appends"] = counterSum(delta, "campaign.wal.appends")
	L["campaign.retries"] = counterSum(delta, "campaign.retries")
	if it.Campaign > 0 {
		L["campaign.idle_frac"] = 1 - busy.Seconds()/(it.Campaign*float64(runners(b.cfg.Workload)))
	}

	// Suite: root region wall time per profile; the overhead is what the
	// kernels' own wall_time does not account for.
	var roots []float64
	var runS, kernelS float64
	overhead := make([]float64, 0, len(an.profiles))
	for _, p := range an.profiles {
		var root float64
		for _, r := range p.Records {
			switch {
			case len(r.Path) == 1 && r.Path[0] == "suite":
				root = r.Metrics["time"]
			case len(r.Path) == 2:
				kernelS += r.Metrics["wall_time"]
				if _, ok := r.Metrics["time"]; ok {
					L["model.calls"]++
				}
			}
		}
		roots = append(roots, root*1e3)
		runS += root
		if sub, ok := submitByID[strMeta(p.Metadata, "campaign.spec")]; ok {
			overhead = append(overhead, sub-root*1e3)
		}
	}
	L["suite.run_s"] = runS
	L["suite.overhead_s"] = runS - kernelS
	L["suite.run_ms_p50"] = median(roots)

	if b.cfg.Workload == fabricSweep {
		L["fabric.overhead_ms_p50"] = median(overhead)
		assigned := counterSum(delta, "fabric.assigned")
		L["fabric.assigned"] = assigned
		L["fabric.resends"] = counterSum(delta, "fabric.resends")
		L["fabric.steals"] = counterSum(delta, "fabric.steals")
		L["fabric.redispatches"] = counterSum(delta, "fabric.redispatches")
		L["fabric.hedges"] = counterSum(delta, "fabric.hedges")
		if assigned > 0 {
			L["fabric.useful_ratio"] = float64(len(specs)) / assigned
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timedExec wraps the campaign's executor and times every Submit and the
// bookkeeping from Submit's return to the spec's Progress event, which
// the orchestrator fires after the WAL append.
type timedExec struct {
	inner       campaign.Executor
	spans       *spanLog
	parent      int
	name, layer string // of the Submit spans

	// abandon, when set, is called at the first Submit instead of
	// running any spec: a set-up probe ends there.
	abandon func()

	mu      sync.Mutex
	first   time.Time
	submits map[string]submitRec
	slots   []bool
}

// submitRec is one spec's Submit call and, once it arrived, its Progress
// event.
type submitRec struct {
	start, end, durable time.Time
	lane, span          int
}

func newTimedExec(sp *spanLog, fabric bool) *timedExec {
	t := &timedExec{spans: sp, name: "campaign.Submit", layer: "campaign", submits: map[string]submitRec{}}
	if fabric {
		t.name, t.layer = "fabric.Submit", "fabric"
	}
	return t
}

func (t *timedExec) Submit(ctx context.Context, spec campaign.RunSpec) campaign.SpecResult {
	id := spec.ID()
	t.mu.Lock()
	start := time.Now()
	if t.first.IsZero() {
		t.first = start
	}
	if t.abandon != nil {
		t.mu.Unlock()
		t.abandon()
		return campaign.SpecResult{Spec: spec, Status: campaign.StatusCanceled, Err: context.Canceled}
	}
	lane := 0
	for lane < len(t.slots) && t.slots[lane] {
		lane++
	}
	if lane == len(t.slots) {
		t.slots = append(t.slots, false)
	}
	t.slots[lane] = true
	t.mu.Unlock()

	sid := t.spans.begin(t.name, t.layer, t.parent, id, lane+1)
	sr := t.inner.Submit(ctx, spec)
	t.spans.end(sid)
	end := time.Now()

	t.mu.Lock()
	t.submits[id] = submitRec{start: start, end: end, lane: lane, span: sid}
	t.mu.Unlock()
	return sr
}

// progress is the campaign's Progress callback: the spec is durable.
func (t *timedExec) progress(ev campaign.Event) {
	now := time.Now()
	id := ev.Spec.ID()
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.submits[id]
	if !ok || !r.durable.IsZero() {
		return
	}
	r.durable = now
	t.submits[id] = r
	t.slots[r.lane] = false
	t.spans.add(span{Parent: t.parent, Name: "campaign.record", Layer: "campaign",
		Spec: id, Lane: r.lane + 1, Start: r.end, End: now})
}

func (t *timedExec) firstSubmit() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.first
}

// submitOf returns the record of a spec's Submit call.
func (t *timedExec) submitOf(id string) (submitRec, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.submits[id]
	return r, ok
}

func (t *timedExec) Heartbeat() int64 { return t.inner.Heartbeat() }
func (t *timedExec) Steals() int64    { return t.inner.Steals() }
func (t *timedExec) Close() error     { return t.inner.Close() }

// Worker mode: a fabric worker is this same binary, started with these
// variables set.
const (
	envWorkerOf       = "PERFBENCH_WORKER_OF"
	envWorkerShard    = "PERFBENCH_WORKER_SHARD"
	envWorkerCampaign = "PERFBENCH_WORKER_CAMPAIGN"
)

// workerMain runs this process as a fabric worker when the worker
// variables are set, and reports whether it did.
func workerMain() (bool, error) {
	addr := os.Getenv(envWorkerOf)
	if addr == "" {
		return false, nil
	}
	shard, err := strconv.Atoi(os.Getenv(envWorkerShard))
	if err != nil {
		return true, fmt.Errorf("bad %s: %w", envWorkerShard, err)
	}
	return true, fabric.RunWorker(context.Background(), addr, shard, os.Getenv(envWorkerCampaign))
}

// fleet is a coordinator and the worker processes it forked, mirroring
// rajaperf -fabric N with its default respawn and hedging settings.
type fleet struct {
	coord    *fabric.Coordinator
	campaign string

	mu    sync.Mutex
	addr  string
	cmds  []*exec.Cmd
	rssKB int64 // summed peak RSS of the reaped workers
	once  sync.Once
}

func startFleet(ctx context.Context, dir string, reg *telemetry.Registry, workers int) (*fleet, error) {
	f := &fleet{campaign: dir}
	coord, err := fabric.NewCoordinator(fabric.Config{
		Workers:     workers,
		Worker:      fabric.WorkerConfig{OutDir: dir},
		Spawn:       f.spawn,
		Respawn:     resilience.Policy{MaxAttempts: 3, BaseDelay: 200 * time.Millisecond, MaxDelay: 2 * time.Second},
		HedgeFactor: 4,
		Metrics:     reg,
		Campaign:    dir,
	})
	if err != nil {
		return nil, err
	}
	f.coord = coord
	f.mu.Lock()
	f.addr = coord.Addr()
	f.mu.Unlock()
	for i := 0; i < workers; i++ {
		if err := f.spawn(i); err != nil {
			f.close()
			return nil, err
		}
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := coord.AwaitReady(wctx); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// spawn starts the worker process of one shard.
func (f *fleet) spawn(shard int) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate worker binary: %w", err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		envWorkerOf+"="+f.addr,
		envWorkerShard+"="+strconv.Itoa(shard),
		envWorkerCampaign+"="+f.campaign)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start worker %d: %w", shard, err)
	}
	f.cmds = append(f.cmds, cmd)
	return nil
}

// close dismisses the fleet and waits for every worker process to exit,
// killing one that has not exited 10 s after the bye.
func (f *fleet) close() {
	f.once.Do(func() {
		f.coord.Close()
		f.mu.Lock()
		cmds := f.cmds
		f.cmds = nil
		f.mu.Unlock()
		for _, cmd := range cmds {
			done := make(chan struct{})
			go func(c *exec.Cmd) {
				defer close(done)
				c.Wait()
			}(cmd)
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				cmd.Process.Kill()
				<-done
			}
			if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
				f.rssKB += ru.Maxrss
			}
		}
	})
}

// analysisResult is what analyze produced.
type analysisResult struct {
	profiles []*caliper.Profile
	tk       *thicket.Thicket
	ratio    float64
	layer    map[string]float64
	seconds  float64
}

// analyzeMedian repeats analyze, each time from a collected heap and an
// empty query cache, at least minReps times and until window has passed.
// It returns the repeat of median duration and every repeat's duration.
// On a traced pass each repeat records into a log of its own, and only
// the kept repeat's spans join sp, so the layers' self time is one
// analysis however many repeats the window holds.
func analyzeMedian(dir, workload string, sp *spanLog, parent, minReps int, window time.Duration) (*analysisResult, []float64, error) {
	type repeat struct {
		an    *analysisResult
		spans *spanLog
	}
	var runs []repeat
	var last *analysisResult
	start := time.Now()
	for len(runs) < minReps || time.Since(start) < window {
		if last != nil {
			// Every repeat reads and composes the same profiles: only
			// the latest repeat's stay live, so the repeats do not add
			// to the peak RSS.
			last.profiles, last.tk = nil, nil
		}
		var own *spanLog
		if sp != nil {
			own = newSpanLog()
		}
		frame.DefaultEngine().ClearCache()
		runtime.GC()
		t := time.Now()
		an, err := analyze(dir, workload, own, 0)
		if err != nil {
			return nil, nil, err
		}
		an.seconds = time.Since(t).Seconds()
		last = an
		runs = append(runs, repeat{an, own})
	}
	profiles, tk := last.profiles, last.tk
	secs := make([]float64, len(runs))
	for i, r := range runs {
		secs[i] = r.an.seconds
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].an.seconds < runs[j].an.seconds })
	kept := runs[len(runs)/2]
	kept.an.profiles, kept.an.tk = profiles, tk
	sp.graft(kept.spans, parent)
	return kept.an, secs, nil
}

// The rajaperf-analyze sweep: these metadata keys × metrics.
var (
	sweepKeys    = []string{"machine", "variant", "tuning", "size_per_node"}
	sweepMetrics = []string{"time", "GB/s", "memory_bound"}
)

// analyze reads the campaign directory, composes it, and runs the
// groupstats sweep and the speedup tables: on host-exec RAJA_Seq over
// Base_Seq (and RAJA_OpenMP over RAJA_Seq) kernel wall_time, on the
// sweeps SPR-DDR's modeled time over each other machine's.
func analyze(dir, workload string, sp *spanLog, parent int) (*analysisResult, error) {
	out := &analysisResult{layer: map[string]float64{}}
	cache0 := telemetry.Default().Snapshot()
	root := sp.begin("analyze", "analysis", parent, "", 0)
	defer sp.end(root)

	t := time.Now()
	s := sp.begin("caliper.ReadDir", "caliper", root, "", 0)
	ps, err := caliper.ReadDir(dir)
	sp.end(s)
	if err != nil {
		return nil, err
	}
	out.profiles = ps
	out.layer["thicket.read_s"] = time.Since(t).Seconds()

	t = time.Now()
	s = sp.begin("thicket.FromProfiles", "thicket", root, "", 0)
	tk := thicket.FromProfiles(ps)
	sp.end(s)
	out.tk = tk
	out.layer["thicket.compose_s"] = time.Since(t).Seconds()

	t = time.Now()
	s = sp.begin("thicket.GroupStatsSweep", "thicket", root, "", 0)
	tk.GroupStatsSweep(sweepKeys, sweepMetrics)
	sp.end(s)
	out.layer["thicket.sweep_ms"] = ms(time.Since(t))

	t = time.Now()
	s = sp.begin("thicket.SpeedupTable", "thicket", root, "", 0)
	where := func(key, value string) *thicket.Thicket {
		return tk.Filter(func(md map[string]any) bool { return strMeta(md, key) == value })
	}
	if workload == hostExec {
		seq := where("variant", "RAJA_Seq")
		out.ratio = geomean(values(thicket.SpeedupTable(seq, where("variant", "Base_Seq"), "wall_time")))
		out.layer["raja.omp_seq_ratio_geomean"] =
			geomean(values(thicket.SpeedupTable(where("variant", "RAJA_OpenMP"), seq, "wall_time")))
	} else {
		// The paper's Fig 9 direction: SPR-DDR over each other machine.
		ddr := where("machine", "SPR-DDR")
		for _, m := range machine.Paper() {
			if m.Shorthand != "SPR-DDR" {
				thicket.SpeedupTable(ddr, where("machine", m.Shorthand), "time")
			}
		}
	}
	sp.end(s)
	out.layer["thicket.speedup_ms"] = ms(time.Since(t))

	cache1 := telemetry.Default().Snapshot()
	hits := gauge(cache1, "thicket.query_cache.hits") - gauge(cache0, "thicket.query_cache.hits")
	misses := gauge(cache1, "thicket.query_cache.misses") - gauge(cache0, "thicket.query_cache.misses")
	if hits+misses > 0 {
		out.layer["thicket.cache_hit_ratio"] = hits / (hits + misses)
	}
	return out, nil
}

func values(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// figureResult is what figures produced.
type figureResult struct {
	checks checks
	layer  map[string]float64
}

// figures is the rajaperf-experiments -exp all path: a fresh session at
// the paper's 32M, every table and figure rendered, then the summary of
// the paper's claims.
func figures(sp *spanLog, parent int) (*figureResult, error) {
	out := &figureResult{layer: map[string]float64{}}
	s := analysis.NewSession(suite.DefaultSizePerNode, false)

	t := time.Now()
	id := sp.begin("analysis.Prefetch", "analysis", parent, "", 0)
	err := s.Prefetch(machine.Paper()...)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	out.layer["analysis.collect_s"] = time.Since(t).Seconds()

	t = time.Now()
	id = sp.begin("analysis.tables", "analysis", parent, "", 0)
	err = renderAll(s)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	out.layer["analysis.tables_ms"] = ms(time.Since(t))

	t = time.Now()
	id = sp.begin("analysis.Cluster", "cluster", parent, "", 0)
	cl, err := s.Cluster(0)
	if err == nil {
		_ = cl.Render()
	}
	sp.end(id)
	if err != nil {
		return nil, err
	}
	out.layer["analysis.cluster_ms"] = ms(time.Since(t))

	t = time.Now()
	id = sp.begin("analysis.Summary", "analysis", parent, "", 0)
	sum, err := s.Summary()
	sp.end(id)
	if err != nil {
		return nil, err
	}
	out.layer["analysis.summary_ms"] = ms(time.Since(t))
	out.checks = checkSummary(sum)
	return out, nil
}

// renderAll renders every table and figure of rajaperf-experiments
// except the clustering (timed on its own) and the summary.
func renderAll(s *analysis.Session) error {
	_ = analysis.Table1()
	rows, err := s.Table2()
	if err != nil {
		return err
	}
	_ = analysis.RenderTable2(rows)
	_ = analysis.Table3(suite.DefaultSizePerNode)
	_ = analysis.Table4()
	_ = analysis.RenderFig1(analysis.Fig1(0))
	_ = analysis.Fig2()
	for _, m := range []*machine.Machine{machine.SPRDDR(), machine.SPRHBM()} {
		td, err := s.Topdown(m)
		if err != nil {
			return err
		}
		_ = analysis.RenderTopdown(m, td)
	}
	rf, err := s.Roofline(machine.P9V100())
	if err != nil {
		return err
	}
	_ = rf.Render()
	f9, err := s.Fig9()
	if err != nil {
		return err
	}
	_ = f9.Render()
	tu, err := s.TuningSweep(machine.P9V100(), nil)
	if err != nil {
		return err
	}
	_ = tu.Render()
	f10, err := s.Fig10()
	if err != nil {
		return err
	}
	_ = analysis.RenderFig10(f10)
	return nil
}
