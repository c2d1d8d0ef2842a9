// Command rajaperf runs the RAJA Performance Suite and writes one Caliper
// profile per run, mirroring the C++ suite's command line:
//
//	rajaperf -machine SPR-DDR -variant RAJA_Seq -outdir runs/
//	rajaperf -machine P9-V100 -variant RAJA_GPU -block 256 -size 32000000
//	rajaperf -kernels Stream_TRIAD,Basic_DAXPY -execute
//
// A campaign runs the cross-product of several machines, variants,
// GPU-block tunings, sizes, and schedules, concurrently and resumably,
// writing one profile per configuration plus a manifest:
//
//	rajaperf -campaign -machines SPR-DDR,P9-V100 -variants RAJA_Seq,RAJA_GPU \
//	         -blocks 128,256 -jobs 4 -outdir runs/
//	rajaperf -campaign ... -resume -outdir runs/   # re-runs only what's missing
//
// Kernel computations execute when -execute is set (checksums recorded);
// hardware timing and counters for the Table II machines always come from
// the TMA/GPU models standing in for PAPI and Nsight Compute.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"rajaperf/internal/caliper"
	"rajaperf/internal/campaign"
	"rajaperf/internal/fabric"
	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
	"rajaperf/internal/raja"
	"rajaperf/internal/report"
	"rajaperf/internal/resilience"
	"rajaperf/internal/suite"
	"rajaperf/internal/telemetry"
)

// main delegates to realMain so the deferred cleanups — pool shutdown
// and CPU-profile flush — run before the process exits with a status.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		machName = flag.String("machine", "SPR-DDR", "target machine: SPR-DDR, SPR-HBM, P9-V100, EPYC-MI250X, Host")
		variant  = flag.String("variant", "", "variant to run (default: the machine's Table III variant)")
		block    = flag.Int("block", 0, "GPU block-size tuning (0 = 256)")
		size     = flag.Int("size", 0, "problem size per node (0 = 32M)")
		reps     = flag.Int("reps", 0, "kernel repetitions (0 = kernel defaults)")
		workers  = flag.Int("workers", 0, "execution workers (0 = all cores)")
		schedule = flag.String("schedule", "default", "parallel loop schedule: default, static, dynamic, guided")
		dispatch = flag.String("dispatch", "mono", "RAJA dispatch for rewired kernels: mono (generic, monomorphized) or closure (classic per-index)")
		kerns    = flag.String("kernels", "", "comma-separated kernel names (empty = whole suite)")
		group    = flag.String("group", "", "run only one group (Algorithm, Apps, Basic, Comm, Lcals, Polybench, Stream)")
		feature  = flag.String("feature", "", "run only kernels exercising a RAJA feature (Sort, Scan, Reduction, Atomic, View, Workgroup, MPI)")
		execute  = flag.Bool("execute", false, "run the real kernel computations")
		outdir   = flag.String("outdir", ".", "directory for the profile file")
		list     = flag.Bool("list", false, "list registered kernels and exit")
		doReport = flag.Bool("report", false, "run kernels on the host across variants and print the timing + checksum reports")
		scaling  = flag.Bool("scaling", false, "run a strong-scaling study of RAJA_OpenMP on the host (1/2/4/8 workers)")
		services = flag.String("services", "", "comma-separated measurement services: "+strings.Join(caliper.ServiceNames(), ", "))

		// Campaign mode: plan → execute → record over a cross-product of
		// configurations.
		campaignF = flag.Bool("campaign", false, "run a campaign: the cross-product of -machines × -variants × -blocks × -sizes × -schedules")
		machines  = flag.String("machines", "", "comma-separated machines for -campaign (default: -machine)")
		variants  = flag.String("variants", "", "comma-separated variants for -campaign (default: each machine's Table III variant)")
		blocks    = flag.String("blocks", "", "comma-separated GPU block tunings for -campaign (GPU variants only)")
		sizes     = flag.String("sizes", "", "comma-separated node problem sizes for -campaign (default: -size)")
		schedules = flag.String("schedules", "", "comma-separated loop schedules for -campaign (default: -schedule)")
		include   = flag.String("include", "", "comma-separated spec-ID patterns a campaign spec must match")
		exclude   = flag.String("exclude", "", "comma-separated spec-ID patterns that drop campaign specs")
		jobs      = flag.Int("jobs", 1, "concurrent runs in a campaign (each on its own executor pool)")
		resume    = flag.Bool("resume", false, "skip campaign specs whose recorded profile exists and validates (runs crash recovery first)")

		// Distributed fabric: -fabric N forks N local worker processes and
		// shards the campaign across them; -worker-of/-worker-shard/
		// -worker-campaign are the internal worker-mode entry those forks
		// use.
		fabricN       = flag.Int("fabric", 0, "run the campaign distributed: fork this many local worker processes and shard specs across them (implies -campaign concurrency; clamped to the plan's spec count)")
		fabricRespawn = flag.Int("fabric-respawn", 3, "restart budget per fabric shard: respawn a dead worker up to this many times with exponential backoff (0 = dead capacity stays lost)")
		hedgeFactor   = flag.Float64("hedge", 4, "hedged redispatch: duplicate a spec in flight longer than this multiple of the campaign's running p95 onto an idle worker (0 = off)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM, let in-flight fabric specs finish for up to this long before canceling hard")
		workerOf      = flag.String("worker-of", "", "internal: run as a fabric worker dialing this coordinator address")
		workerShard   = flag.Int("worker-shard", 0, "internal: this fabric worker's shard index")
		workerCamp    = flag.String("worker-campaign", "", "internal: the campaign identity this fabric worker belongs to")

		// Resilience: deterministic fault injection and the machinery that
		// absorbs faults — retry with backoff, run watchdogs, a circuit
		// breaker over repeat offenders.
		faults      = flag.String("faults", "", "deterministic fault injection spec, e.g. 'kernel.panic:2,run.transient:0.1,seed=7'; 'list' or 'help' prints the fault-point catalog")
		maxAttempts = flag.Int("max-attempts", 1, "run attempts per campaign spec; transient failures and timeouts retry with exponential backoff")
		runTimeout  = flag.Duration("run-timeout", 0, "hard wall-clock deadline per campaign run attempt (0 = none)")
		stallT      = flag.Duration("stall-timeout", 0, "cancel a campaign run whose executor heartbeat stalls this long (0 = off)")
		breaker     = flag.Int("breaker", 0, "open a (kernel set, variant) circuit after this many consecutive non-transient failures, skipping its remaining specs (0 = off)")
		traceOut    = flag.String("trace", "", "write a Chrome-trace JSON event trace to this path (enables the trace service)")
		cpuprof     = flag.String("pprof", "", "write a CPU profile of the run to this path")

		// Telemetry plane: live HTTP exposition plus periodic flushing of
		// registry deltas into the output directory as telemetry profiles.
		metricsAddr  = flag.String("metrics-addr", "", "serve the telemetry plane (/metrics, /debug/vars, /healthz, /events, /debug/pprof) on this address, e.g. localhost:6060")
		teleInterval = flag.Duration("telemetry-interval", 0, "flush registry deltas into -outdir as telemetry_*.cali.json profiles at this period (0 = off)")
		quiet        = flag.Bool("quiet", false, "log errors only")
		verbose      = flag.Bool("v", false, "log debug detail (per-spec scheduling, heartbeats)")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// -faults list/help: print the catalog instead of burying it in the
	// parse error of an unknown point.
	if *faults == "list" || *faults == "help" {
		fmt.Println("fault points, for -faults 'point[:arg][,point[:arg]...][,seed=N]'")
		fmt.Println("(arg: probability in [0,1] with a '.', or a positive count; '=' works as ':'):")
		for _, p := range resilience.Catalog() {
			fmt.Printf("  %-16s %s\n", p.Name, p.Desc)
		}
		return 0
	}

	log := telemetry.NewLogger(os.Stderr, telemetry.ParseLevel(*quiet, *verbose))
	telemetry.SetDefault(log)

	// Every parallel region of the process — suite runs, reports, and
	// scaling studies alike — dispatches through the shared persistent
	// worker pool; release its workers on the way out.
	defer raja.Default().Close()

	// Fabric worker mode: this process is one shard of a distributed
	// campaign, forked by a coordinating rajaperf -fabric run. It skips
	// every other mode — the coordinator owns planning, telemetry
	// exposition, and reporting; the worker just executes assigned specs
	// until told bye.
	if *workerOf != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if err := fabric.RunWorker(ctx, *workerOf, *workerShard, *workerCamp); err != nil {
			fmt.Fprintln(os.Stderr, "rajaperf:", err)
			return 1
		}
		return 0
	}

	sched, ok := raja.ParseSchedule(*schedule)
	if !ok {
		fmt.Fprintf(os.Stderr, "rajaperf: unknown schedule %q\n", *schedule)
		return 2
	}
	disp, err := kernels.ParseDispatch(*dispatch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rajaperf:", err)
		return 2
	}

	svc, err := caliper.ParseServices(*services)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rajaperf:", err)
		return 2
	}
	inj, err := resilience.ParseFaults(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rajaperf:", err)
		return 2
	}
	if *traceOut != "" {
		svc[caliper.ServiceTrace] = true
	}

	// Profiling of the tool itself: -pprof writes a CPU profile of
	// whatever mode runs below; the telemetry server carries the live
	// pprof endpoints alongside /metrics.
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rajaperf:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rajaperf:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	// The telemetry plane: the default pool's dispatch metrics, the event
	// bus every progress consumer shares, the HTTP server, and the
	// periodic snapshotter.
	raja.Default().EnableTelemetry(nil)
	bus := new(telemetry.Bus)
	_, teleStop, err := telemetry.Boot(telemetry.BootOptions{
		Addr:       *metricsAddr,
		Bus:        bus,
		FlushDir:   *outdir,
		FlushEvery: *teleInterval,
		Meta:       map[string]any{"telemetry.source": "rajaperf", "telemetry.dir": *outdir},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rajaperf:", err)
		return 1
	}
	defer teleStop()

	if *list {
		for _, n := range kernels.Names() {
			fmt.Println(n)
		}
		return 0
	}
	// Every host path but single-run mode is a campaign plan: -campaign,
	// the -report timing and checksum reports and the -scaling study
	// share the executor, faults, retry, watchdogs and telemetry.
	plan := campaign.Plan{
		Kernels: splitList(*kerns), Sizes: []int{*size}, Reps: *reps,
		Workers: *workers, Schedules: []string{*schedule},
		Dispatch: *dispatch, Services: *services,
	}
	opts := campaign.Options{
		Retry:      resilience.Policy{MaxAttempts: *maxAttempts},
		RunTimeout: *runTimeout, StallTimeout: *stallT,
		Faults: inj, Bus: bus,
	}
	if *campaignF {
		if err := checkCampaignFlags(set); err != nil {
			fmt.Fprintln(os.Stderr, "rajaperf:", err)
			return 2
		}
		plan.Machines = splitList(orDefault(*machines, *machName))
		plan.Variants = splitList(*variants)
		plan.Schedules = splitList(orDefault(*schedules, *schedule))
		plan.Include, plan.Exclude = splitList(*include), splitList(*exclude)
		plan.Execute = *execute
		var err error
		if plan.GPUBlocks, err = parseInts(*blocks); err == nil {
			plan.Sizes, err = parseInts(orDefault(*sizes, strconv.Itoa(*size)))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "rajaperf: bad -blocks or -sizes:", err)
			return 2
		}
		opts.OutDir, opts.Campaign = *outdir, *outdir
		opts.Workers, opts.Resume, opts.Breaker = *jobs, *resume, *breaker
		code, err := runCampaign(plan, opts, fabricArgs{
			workers: *fabricN, respawn: *fabricRespawn, hedge: *hedgeFactor,
			drainTimeout: *drainTimeout, faultSpec: *faults, outdirSet: set["outdir"],
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rajaperf:", err)
		}
		return code
	}
	if *doReport || *scaling {
		study := runReport
		if *scaling {
			study = runScaling
		}
		if err := study(plan, opts); err != nil {
			fmt.Fprintln(os.Stderr, "rajaperf:", err)
			return 1
		}
		return 0
	}

	if err := run(*machName, *variant, *block, *size, *reps, *workers,
		sched, disp, svc, *traceOut, *kerns, *group, *feature, *execute, *outdir, inj); err != nil {
		fmt.Fprintln(os.Stderr, "rajaperf:", err)
		return 1
	}
	return 0
}

// fabricArgs carries the -fabric flag set.
type fabricArgs struct {
	// workers > 0 runs the campaign distributed across that many forked
	// local worker processes (clamped to the plan's spec count).
	workers int
	// respawn is the per-shard restart budget for dead fabric workers;
	// hedge the speculative-redispatch factor over the running p95; and
	// drainTimeout the SIGTERM grace for in-flight specs.
	respawn      int
	hedge        float64
	drainTimeout time.Duration
	// faultSpec is the raw -faults string: the fabric forwards it to each
	// worker, which seeds its own injector from it.
	faultSpec string
	// outdirSet records whether -outdir was given explicitly: the fabric
	// refuses to run against the flag's "." default, which would litter
	// the working directory with shard WALs and profiles.
	outdirSet bool
}

// runCampaign plans and executes a campaign, streaming progress lines as
// specs finish. It returns the process exit code: 0 when every spec
// completed (or resumed), 1 when any failed or the campaign was
// interrupted — in which case the written manifest makes a -resume
// invocation pick up where this one stopped.
func runCampaign(plan campaign.Plan, opts campaign.Options, fab fabricArgs) (int, error) {
	specs, err := plan.Specs()
	if err != nil {
		return 2, err
	}
	log := telemetry.L()
	log.Info("campaign planned", "specs", len(specs), "outdir", opts.OutDir,
		"jobs", opts.Workers, "resume", opts.Resume)
	if fab.workers > len(specs) && len(specs) > 0 {
		// More workers than specs would fork processes that never receive
		// an assignment.
		log.Info("clamping -fabric to the planned spec count",
			"fabric", fab.workers, "specs", len(specs))
		fab.workers = len(specs)
	}

	// Progress consumer: the campaign publishes to the bus (the same
	// stream /events serves over SSE); this subscriber renders it as
	// structured log lines. The bus — not this printer — is the source
	// of truth, so an operator watching SSE and one watching the
	// terminal see identical transitions.
	printerDone := watchProgress(opts.Bus, log)

	// Interrupt (ctrl-C) cancels cleanly: in-flight runs stop between
	// kernels, the manifest stays consistent, and -resume continues.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Distributed mode: stand up the coordinator, fork the worker fleet,
	// rendezvous, and hand the coordinator to the orchestrator as its
	// execution backend. The orchestrator's concurrency matches the fleet
	// (capacity one spec in flight per worker). The same fork path serves
	// initial spawn and supervision: a dead worker respawns through it
	// under the -fabric-respawn budget.
	var coord *fabric.Coordinator
	var spawner *workerSpawner
	var drainDone chan struct{}
	var hardCancel context.CancelFunc
	if fab.workers > 0 {
		if opts.OutDir == "" || !fab.outdirSet {
			return 2, errors.New("-fabric requires -outdir (workers stream profiles and shard WALs there)")
		}
		if spawner, err = newWorkerSpawner(opts.OutDir); err != nil {
			return 1, err
		}
		cfg := fabric.Config{
			Workers: fab.workers,
			Worker: fabric.WorkerConfig{
				OutDir:       opts.OutDir,
				MaxAttempts:  opts.Retry.MaxAttempts,
				RunTimeout:   opts.RunTimeout,
				StallTimeout: opts.StallTimeout,
				Faults:       fab.faultSpec,
			},
			HedgeFactor: fab.hedge,
			Chaos:       opts.Faults,
			Bus:         opts.Bus,
			Campaign:    opts.OutDir,
		}
		if fab.respawn > 0 {
			cfg.Spawn = spawner.spawn
			cfg.Respawn = resilience.Policy{MaxAttempts: fab.respawn,
				BaseDelay: 200 * time.Millisecond, MaxDelay: 2 * time.Second}
		}
		coord, err = fabric.NewCoordinator(cfg)
		if err != nil {
			return 1, err
		}
		defer coord.Close()
		spawner.setAddr(coord.Addr())
		for i := 0; i < fab.workers; i++ {
			if err := spawner.spawn(i); err != nil {
				spawner.reap()
				return 1, err
			}
		}
		defer spawner.reap()
		waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err = coord.AwaitReady(waitCtx)
		cancel()
		if err != nil {
			return 1, err
		}
		log.Info("fabric ready", "workers", fab.workers, "addr", coord.Addr())
		opts.Executor = coord
		opts.Workers = fab.workers

		// Graceful drain: SIGTERM stops assignment and lets in-flight
		// specs finish (their outcomes reach the shard WALs), then the
		// campaign winds down at a spec boundary. If the drain deadline
		// expires, fall back to the hard cancel SIGINT uses.
		term := make(chan os.Signal, 1)
		signal.Notify(term, syscall.SIGTERM)
		defer signal.Stop(term)
		ctx, hardCancel = context.WithCancel(ctx)
		defer hardCancel()
		drainDone = make(chan struct{})
		go func() {
			defer close(drainDone)
			select {
			case <-term:
				log.Info("SIGTERM: draining fabric", "timeout", fab.drainTimeout)
				dctx, dcancel := context.WithTimeout(context.Background(), fab.drainTimeout)
				defer dcancel()
				var d campaign.Drainer = coord
				if err := d.Drain(dctx); err != nil {
					log.Warn("fabric drain incomplete, canceling hard", "err", err)
					hardCancel()
				} else {
					log.Info("fabric drained: in-flight specs finished")
				}
			case <-ctx.Done():
			}
		}()
	}

	res, err := campaign.Run(ctx, plan, opts)
	if coord != nil {
		// If a SIGTERM drain is mid-flight, let it finish (and log its
		// outcome) before the fleet is dismissed; hardCancel releases the
		// signal goroutine when no SIGTERM ever arrived.
		hardCancel()
		<-drainDone
		// Dismiss the fleet (bye frames), reap the forked workers, then
		// fold their shard WALs into the root manifest — the merge is
		// byte-deterministic regardless of worker completion order.
		coord.Close()
		spawner.reap()
		if _, applied, ferr := campaign.FinalizeShards(opts.OutDir); ferr != nil {
			log.Error("fabric: shard WAL merge failed", "err", ferr)
		} else {
			log.Info("fabric finished", "steals", coord.Steals(),
				"redispatched", coord.Redispatches(), "respawned", coord.Respawns(),
				"hedged", coord.Hedges(), "shard_entries_merged", applied)
		}
	}
	printerDone()
	if res != nil {
		if rep := res.Recovered; rep != nil && !rep.Empty() {
			fmt.Printf("recovery: %s\n", rep)
		}
		fmt.Printf("campaign: %d specs, %d executed, %d resumed, %d failed in %.2fs\n",
			len(res.Specs), res.Done, res.Resumed, res.Failed, res.Elapsed.Seconds())
		if res.TimedOut > 0 || res.Skipped > 0 {
			fmt.Printf("campaign: %d timed out, %d skipped by circuit breaker\n",
				res.TimedOut, res.Skipped)
		}
		fmt.Printf("manifest: %s\n", campaign.ManifestPath(opts.OutDir))
	}
	if err != nil {
		return 1, err
	}
	if ferr := res.Err(); ferr != nil {
		return 1, ferr
	}
	return 0, nil
}

// watchProgress subscribes to the campaign event bus and renders each
// event as a structured log line: terminal spec statuses at info/warn/
// error, scheduling and heartbeats at debug. The returned function
// detaches the subscription and waits for the printer to drain, so no
// event logged by the campaign is lost at shutdown.
func watchProgress(bus *telemetry.Bus, log *telemetry.Logger) func() {
	if bus == nil {
		return func() {}
	}
	sub := bus.Subscribe(256, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sub.C {
			kv := []any{"campaign", ev.Campaign}
			switch ev.Type {
			case "campaign":
				log.Info("campaign "+ev.Status, append(kv, "finished", ev.Finished, "total", ev.Total)...)
			case "heartbeat":
				log.Debug("heartbeat", append(kv, "finished", ev.Finished, "total", ev.Total, "in_flight", ev.InFlight)...)
			case "run":
				kv = append(kv, "run", ev.Run, "n", fmt.Sprintf("%d/%d", ev.Finished, ev.Total))
				switch campaign.Status(ev.Status) {
				case campaign.StatusDone:
					kv = append(kv, "elapsed_sec", fmt.Sprintf("%.2f", ev.Elapsed))
					if ev.Attempts > 1 {
						kv = append(kv, "attempts", ev.Attempts)
					}
					log.Info("done", kv...)
				case campaign.StatusResumed:
					log.Info("resumed", kv...)
				case campaign.StatusFailed:
					log.Error("failed", append(kv, "err", ev.Err)...)
				case campaign.StatusTimedOut:
					log.Warn("timed out", append(kv, "err", ev.Err)...)
				case campaign.StatusSkipped:
					log.Warn("skipped", append(kv, "err", ev.Err)...)
				case campaign.StatusCanceled:
					log.Info("canceled", kv...)
				default: // "running" and any future phases
					log.Debug(ev.Status, kv...)
				}
			}
		}
	}()
	return func() {
		sub.Close()
		<-done
	}
}

// campaignDropped pairs each single-run flag a campaign cannot honor
// with what to do instead.
var campaignDropped = [][2]string{
	{"variant", "use -variants"}, {"block", "use -blocks"},
	{"group", "use -kernels"}, {"feature", "use -kernels"},
	{"trace", "tracing is single-run only"},
}

// checkCampaignFlags rejects single-run flags set alongside -campaign,
// which would otherwise be dropped silently.
func checkCampaignFlags(set map[string]bool) error {
	for _, d := range campaignDropped {
		if set[d[0]] {
			return fmt.Errorf("-%s does not apply to -campaign; %s", d[0], d[1])
		}
	}
	return nil
}

// workerSpawner forks fabric worker processes of this same binary, each
// dialing the coordinator with its shard index and campaign identity.
// Worker stderr passes through, so a worker's failure diagnostics reach
// the operator. One spawner serves both the initial fleet and the
// coordinator's respawn supervision, so every forked process — original
// or replacement — is tracked for reaping.
type workerSpawner struct {
	bin      string
	campaign string

	mu   sync.Mutex
	addr string // set once the coordinator is listening; respawn goroutines read it
	cmds []*exec.Cmd
}

// setAddr records the coordinator's listen address once it is known.
func (s *workerSpawner) setAddr(addr string) {
	s.mu.Lock()
	s.addr = addr
	s.mu.Unlock()
}

func newWorkerSpawner(campaignID string) (*workerSpawner, error) {
	bin, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("fabric: locate worker binary: %w", err)
	}
	return &workerSpawner{bin: bin, campaign: campaignID}, nil
}

// spawn forks one worker for the shard. Safe for concurrent use (the
// coordinator's supervisors call it from respawn goroutines).
func (s *workerSpawner) spawn(shard int) error {
	s.mu.Lock()
	addr := s.addr
	s.mu.Unlock()
	cmd := exec.Command(s.bin, "-worker-of", addr,
		"-worker-shard", strconv.Itoa(shard),
		"-worker-campaign", s.campaign, "-quiet")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("fabric: start worker %d: %w", shard, err)
	}
	s.mu.Lock()
	s.cmds = append(s.cmds, cmd)
	s.mu.Unlock()
	return nil
}

// reap waits for forked workers to exit (they do, once the coordinator
// says bye or their connection drops), escalating to SIGKILL after a
// grace period. Idempotent: safe to call on already-reaped commands.
func (s *workerSpawner) reap() {
	s.mu.Lock()
	cmds := s.cmds
	s.cmds = nil
	s.mu.Unlock()
	for _, cmd := range cmds {
		done := make(chan struct{})
		go func(c *exec.Cmd) {
			defer close(done)
			c.Wait()
		}(cmd)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			if cmd.Process != nil {
				cmd.Process.Kill()
			}
			<-done
		}
	}
}

// orDefault returns s, or def when s is empty.
func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// splitList splits a comma-separated flag value, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// parseInts parses a comma-separated integer list.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// runReport prints the classic timing and checksum reports from one
// Host campaign over the four host variants.
func runReport(base campaign.Plan, opts campaign.Options) error {
	if base.Sizes[0] == 0 {
		base.Sizes = []int{100_000} // host-friendly default for real execution
	}
	profiles, err := campaign.Collect(context.Background(), report.Plan(base), opts)
	if err != nil {
		return err
	}
	rep, err := report.FromProfiles(base.Kernels, profiles)
	if err != nil {
		return err
	}
	fmt.Print("Timing report:\n", rep.Timing(), "\nChecksum report:\n", rep.Checksums())
	for _, p := range profiles {
		errs, _ := p.Metadata["errors"].([]string)
		for _, e := range errs {
			telemetry.L().Warn("kernel failed", "variant", p.Metadata["variant"], "err", e)
		}
	}
	if failed := rep.FailedKernels(); len(failed) > 0 {
		return fmt.Errorf("checksum mismatches: %v", failed)
	}
	return nil
}

// runScaling prints the strong-scaling table of RAJA_OpenMP on the host,
// one campaign per worker count.
func runScaling(base campaign.Plan, opts campaign.Options) error {
	if base.Sizes[0] == 0 {
		base.Sizes = []int{400_000}
	}
	var profiles []*caliper.Profile
	for _, w := range report.ScalingWorkers {
		ps, err := campaign.Collect(context.Background(), report.ScalingPlan(base, w), opts)
		if err != nil {
			return err
		}
		profiles = append(profiles, ps...)
	}
	rows := report.ScalingFromProfiles(report.ScalingWorkers, profiles)
	fmt.Print(report.RenderScaling(rows, report.ScalingWorkers))
	return nil
}

func run(machName, variant string, block, size, reps, workers int,
	sched raja.Schedule, disp kernels.DispatchMode, svc caliper.Services,
	traceOut string, kerns, group, feature string, execute bool,
	outdir string, inj *resilience.Injector) error {

	m, err := machine.ByName(machName)
	if err != nil {
		return err
	}
	v := suite.DefaultVariant(m)
	if variant != "" {
		if v, err = kernels.ParseVariant(variant); err != nil {
			return err
		}
	}

	var names []string
	if kerns != "" {
		names = strings.Split(kerns, ",")
	}
	if group != "" {
		for _, k := range kernels.Names() {
			if strings.HasPrefix(k, group+"_") {
				names = append(names, k)
			}
		}
		if len(names) == 0 {
			return fmt.Errorf("no kernels in group %q", group)
		}
	}
	if feature != "" {
		var feat kernels.Feature
		found := false
		for f := kernels.FeatSort; f <= kernels.FeatMPI; f++ {
			if strings.EqualFold(f.String(), feature) {
				feat, found = f, true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown feature %q", feature)
		}
		names = names[:0]
		for _, k := range kernels.WithFeature(feat) {
			names = append(names, k.Info().FullName())
		}
		if len(names) == 0 {
			return fmt.Errorf("no kernels exercise feature %q", feature)
		}
	}

	var tracer *caliper.Tracer
	if svc.Enabled(caliper.ServiceTrace) {
		tracer = caliper.NewTracer(raja.Default().Lanes(), caliper.DefaultTraceEvents)
		if traceOut == "" {
			traceOut = filepath.Join(outdir, "trace.json")
		}
	}

	p, err := suite.RunContext(context.Background(), suite.Config{
		Machine:     m,
		Variant:     v,
		GPUBlock:    block,
		SizePerNode: size,
		Reps:        reps,
		Workers:     workers,
		Kernels:     names,
		Execute:     execute,
		Schedule:    sched,
		Dispatch:    disp,
		Services:    svc,
		Tracer:      tracer,
		Faults:      inj,
	})
	if err != nil {
		return err
	}

	fname := fmt.Sprintf("%s_%s_%s%s", m.Shorthand, v, p.Metadata["tuning"], caliper.FileExt)
	path := filepath.Join(outdir, fname)
	if err := p.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("ran %v kernels (skipped %v) on %s, wrote %s\n",
		p.Metadata["kernels_run"], p.Metadata["kernels_skipped"], m, path)
	if tracer != nil {
		if err := tracer.WriteFile(traceOut); err != nil {
			return err
		}
		if d := tracer.Dropped(); d > 0 {
			fmt.Printf("wrote %s (ring buffer full: %d events dropped)\n", traceOut, d)
		} else {
			fmt.Printf("wrote %s\n", traceOut)
		}
	}
	return nil
}
