package fabric

// Distributed-fabric acceptance: real worker processes (this test
// binary re-executing itself in worker mode), a real TCP coordinator,
// and real kernel executions. The tests pin the guarantees DESIGN.md
// promises: a fabric campaign's profiles are equivalent to a
// single-process run (oracle comparison), resume over a fabric-written
// directory re-runs nothing, a kill-9'd worker costs only its own
// in-flight spec (redispatched, campaign converges), and an idle worker
// steals from a skewed queue.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rajaperf/internal/caliper"
	"rajaperf/internal/campaign"
	"rajaperf/internal/resilience"
	"rajaperf/internal/telemetry"
	"rajaperf/internal/thicket"
)

// Worker-mode re-exec: when these env vars are set, the test binary is
// one of the fleet's worker processes, not a test run.
const (
	envWorkerAddr     = "RAJAPERF_FABRIC_WORKER"
	envWorkerShard    = "RAJAPERF_FABRIC_SHARD"
	envWorkerCampaign = "RAJAPERF_FABRIC_CAMPAIGN"
)

func TestMain(m *testing.M) {
	if addr := os.Getenv(envWorkerAddr); addr != "" {
		shard, err := strconv.Atoi(os.Getenv(envWorkerShard))
		if err != nil {
			fmt.Fprintln(os.Stderr, "fabric worker:", err)
			os.Exit(2)
		}
		if err := RunWorker(context.Background(), addr, shard, os.Getenv(envWorkerCampaign)); err != nil {
			fmt.Fprintln(os.Stderr, "fabric worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fleet is one coordinator plus its forked worker processes (initial and
// respawned).
type fleet struct {
	coord *Coordinator

	mu   sync.Mutex
	addr string // guarded: respawn supervisors read it from coordinator goroutines
	cmds []*exec.Cmd
}

// spawn forks one worker process of this test binary for the shard.
func (f *fleet) spawn(shard int, campaignID string) error {
	f.mu.Lock()
	addr := f.addr
	f.mu.Unlock()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		envWorkerAddr+"="+addr,
		envWorkerShard+"="+strconv.Itoa(shard),
		envWorkerCampaign+"="+campaignID)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	f.mu.Lock()
	f.cmds = append(f.cmds, cmd)
	f.mu.Unlock()
	return nil
}

// startFleet builds a coordinator from cfg and forks cfg.Workers worker
// processes of this test binary, blocking until rendezvous. Setting
// cfg.Respawn.MaxAttempts arms supervision: the coordinator respawns
// dead workers through the same fork path.
func startFleet(t testing.TB, cfg Config) *fleet {
	t.Helper()
	f := &fleet{}
	if cfg.Respawn.MaxAttempts > 0 {
		campaignID := cfg.Campaign
		cfg.Spawn = func(shard int) error { return f.spawn(shard, campaignID) }
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.coord = coord
	f.mu.Lock()
	f.addr = coord.Addr()
	f.mu.Unlock()
	t.Cleanup(func() { f.stop() })
	for i := 0; i < cfg.Workers; i++ {
		if err := f.spawn(i, cfg.Campaign); err != nil {
			t.Fatalf("start worker %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.AwaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	return f
}

// stop dismisses the fleet and reaps the worker processes. Idempotent.
func (f *fleet) stop() {
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
			if cmd.Process != nil {
				cmd.Process.Kill()
			}
			<-done
		}
	}
}

// testPlan is the acceptance campaign: 8 specs of executed stream
// kernels, small enough to run everywhere, real enough to produce
// checksummed profiles.
func testPlan() campaign.Plan {
	return campaign.Plan{
		Machines: []string{"SPR-DDR", "SPR-HBM"},
		Variants: []string{"RAJA_Seq", "RAJA_OpenMP"},
		Sizes:    []int{10_000, 20_000},
		Reps:     1,
		Kernels:  []string{"Stream_TRIAD", "Stream_DOT", "Stream_ADD"},
		Execute:  true,
	}
}

// normalize strips the run-varying parts of a profile — wall-clock
// metrics, collection metadata, executor shape — leaving what must be
// identical between a fabric run and a single-process run. The strip
// list matches the campaign package's serial/concurrent equivalence
// oracle.
func normalize(p *caliper.Profile) (map[string]map[string]float64, map[string]any) {
	recs := make(map[string]map[string]float64, len(p.Records))
	for _, r := range p.Records {
		m := make(map[string]float64, len(r.Metrics))
		for k, v := range r.Metrics {
			if k == "time" || k == "wall_time" {
				continue
			}
			m[k] = v
		}
		recs[r.PathKey()] = m
	}
	meta := make(map[string]any, len(p.Metadata))
	for k, v := range p.Metadata {
		switch {
		case strings.HasPrefix(k, "collection_"),
			strings.HasPrefix(k, "caliper.overhead."),
			k == "executor.workers", k == "executor.lanes",
			k == "campaign.attempt", // a redispatched spec legitimately re-counts
			k == "launchdate":
			continue
		}
		meta[k] = v
	}
	return recs, meta
}

// runFabric executes the plan over a fresh fleet of n workers into dir
// and finalizes the shard WAL merge, returning the campaign result and
// the coordinator (closed, but its counters remain readable).
func runFabric(t testing.TB, dir string, n int, plan campaign.Plan, tweak func(*Config), during func(*fleet)) (*campaign.Result, *Coordinator) {
	t.Helper()
	cfg := Config{
		Workers:  n,
		Worker:   WorkerConfig{OutDir: dir},
		Campaign: dir,
		Metrics:  new(telemetry.Registry),
	}
	if tweak != nil {
		tweak(&cfg)
	}
	f := startFleet(t, cfg)
	if during != nil {
		during(f)
	}
	res, err := campaign.Run(context.Background(), plan, campaign.Options{
		OutDir:   dir,
		Workers:  n,
		Executor: f.coord,
		Bus:      cfg.Bus,
		Campaign: dir,
		Metrics:  cfg.Metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.stop()
	if _, _, err := campaign.FinalizeShards(dir); err != nil {
		t.Fatal(err)
	}
	return res, f.coord
}

// TestFabricOracleEquivalence: the composed thicket of a 4-worker
// fabric campaign equals a single-process campaign over the same plan —
// same profiles (modulo wall-clock), same manifest counts, same
// composition shape.
func TestFabricOracleEquivalence(t *testing.T) {
	plan := testPlan()
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}

	soloDir := t.TempDir()
	soloRes, err := campaign.Run(context.Background(), plan, campaign.Options{
		OutDir: soloDir, Workers: 1, Metrics: new(telemetry.Registry),
	})
	if err != nil {
		t.Fatal(err)
	}
	if soloRes.Done != len(specs) {
		t.Fatalf("solo campaign: %d done, want %d", soloRes.Done, len(specs))
	}

	fabDir := t.TempDir()
	fabRes, _ := runFabric(t, fabDir, 4, plan, nil, nil)
	if fabRes.Done != len(specs) {
		t.Fatalf("fabric campaign: %d done of %d (failed %d)", fabRes.Done, len(specs), fabRes.Failed)
	}

	soloMan, err := campaign.LoadManifest(soloDir)
	if err != nil {
		t.Fatal(err)
	}
	fabMan, err := campaign.LoadManifest(fabDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(soloMan.Entries) != len(fabMan.Entries) {
		t.Fatalf("manifest sizes differ: solo %d, fabric %d", len(soloMan.Entries), len(fabMan.Entries))
	}
	for id, se := range soloMan.Entries {
		fe, ok := fabMan.Entries[id]
		if !ok {
			t.Fatalf("fabric manifest missing %s", id)
		}
		if se.Status != fe.Status || se.File != fe.File {
			t.Fatalf("%s: solo %s/%s vs fabric %s/%s", id, se.Status, se.File, fe.Status, fe.File)
		}
		sp, err := caliper.ReadFile(soloDir + "/" + se.File)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := caliper.ReadFile(fabDir + "/" + fe.File)
		if err != nil {
			t.Fatal(err)
		}
		sRecs, sMeta := normalize(sp)
		fRecs, fMeta := normalize(fp)
		if !reflect.DeepEqual(sRecs, fRecs) {
			t.Errorf("%s: records differ between solo and fabric runs", id)
		}
		if !reflect.DeepEqual(sMeta, fMeta) {
			t.Errorf("%s: metadata differs between solo and fabric runs:\n%v\n%v", id, sMeta, fMeta)
		}
	}

	soloTk, err := thicket.FromDir(soloDir)
	if err != nil {
		t.Fatal(err)
	}
	fabTk, err := thicket.FromDir(fabDir)
	if err != nil {
		t.Fatal(err)
	}
	if soloTk.NumProfiles() != fabTk.NumProfiles() || soloTk.NumRows() != fabTk.NumRows() {
		t.Errorf("thicket shapes differ: solo %d profiles/%d rows, fabric %d/%d",
			soloTk.NumProfiles(), soloTk.NumRows(), fabTk.NumProfiles(), fabTk.NumRows())
	}
}

// TestCampaignDispatchMode: a plan's dispatch mode reaches its runs both
// in-process and through a fabric worker (the spec carries it over the
// wire), and the closure path computes Stream_TRIAD's checksum bitwise
// equal to the mono path.
func TestCampaignDispatchMode(t *testing.T) {
	plan := campaign.Plan{Machines: []string{"Host"}, Variants: []string{"RAJA_Seq"},
		Kernels: []string{"Stream_TRIAD"}, Sizes: []int{1000}, Execute: true}
	triad := func(p *caliper.Profile) uint64 {
		r := p.Find("Stream_TRIAD")
		if r == nil {
			t.Fatal("profile has no Stream_TRIAD node")
		}
		return math.Float64bits(r.Metrics["checksum"])
	}
	opts := campaign.Options{Metrics: new(telemetry.Registry)}
	mono, err := campaign.Collect(context.Background(), plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan.Dispatch = "closure"
	local, err := campaign.Collect(context.Background(), plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, _ := runFabric(t, dir, 1, plan, nil, nil)
	if res.Done != 1 {
		t.Fatalf("fabric campaign: %d done, %d failed", res.Done, res.Failed)
	}
	remote, err := caliper.ReadFile(res.Specs[0].Path)
	if err != nil {
		t.Fatal(err)
	}

	if d := mono[0].Metadata["dispatch"]; d != "mono" {
		t.Errorf("mono campaign recorded dispatch %v", d)
	}
	for name, p := range map[string]*caliper.Profile{"in-process": local[0], "fabric": remote} {
		if d := p.Metadata["dispatch"]; d != "closure" {
			t.Errorf("%s closure campaign recorded dispatch %v", name, d)
		}
		if got, want := triad(p), triad(mono[0]); got != want {
			t.Errorf("%s closure checksum bits %#x, mono %#x", name, got, want)
		}
	}
}

// TestFabricResumeZeroReruns: a resume over a completed fabric
// campaign's directory — whether resumed in-process or through a fresh
// fleet — re-runs nothing.
func TestFabricResumeZeroReruns(t *testing.T) {
	plan := testPlan()
	specs, _ := plan.Specs()
	dir := t.TempDir()
	res, _ := runFabric(t, dir, 2, plan, nil, nil)
	if res.Done != len(specs) {
		t.Fatalf("first run: %d done of %d", res.Done, len(specs))
	}

	t.Run("in-process resume", func(t *testing.T) {
		res2, err := campaign.Run(context.Background(), plan, campaign.Options{
			OutDir: dir, Workers: 2, Resume: true, Metrics: new(telemetry.Registry),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res2.Resumed != len(specs) || res2.Done != 0 {
			t.Fatalf("resume re-ran work: %d resumed, %d done, want %d/0",
				res2.Resumed, res2.Done, len(specs))
		}
	})
	t.Run("fabric resume", func(t *testing.T) {
		cfg := Config{Workers: 2, Worker: WorkerConfig{OutDir: dir},
			Campaign: dir, Metrics: new(telemetry.Registry)}
		f := startFleet(t, cfg)
		res2, err := campaign.Run(context.Background(), plan, campaign.Options{
			OutDir: dir, Workers: 2, Resume: true, Executor: f.coord,
			Metrics: cfg.Metrics, Campaign: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.stop()
		if res2.Resumed != len(specs) || res2.Done != 0 {
			t.Fatalf("fabric resume re-ran work: %d resumed, %d done, want %d/0",
				res2.Resumed, res2.Done, len(specs))
		}
	})
}

// TestFabricKilledWorker: SIGKILL one worker while every worker
// provably has a spec in flight. The campaign must converge to the
// fault-free result — the dead worker's in-flight spec is redispatched
// to a survivor, its completed work is never re-run, and the death is
// visible on the event bus.
func TestFabricKilledWorker(t *testing.T) {
	plan := testPlan()
	// 12 specs, each chunky enough (>=60ms of compute) that the delayed
	// kill below provably lands while the victim is still mid-spec; at
	// small rep counts a spec can finish inside the kill delay and the
	// victim dies idle, with nothing to redispatch.
	plan.Sizes = []int{500_000, 750_000, 1_000_000}
	plan.Reps = 4000
	specs, err := plan.Specs()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	bus := new(telemetry.Bus)
	var mu sync.Mutex
	running, finished := 0, 0
	killed := false
	deadEvents := 0

	var fl *fleet
	sub := bus.Subscribe(256, 0)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range sub.C {
			mu.Lock()
			switch {
			case ev.Type == "worker" && ev.Status == "dead":
				deadEvents++
			case ev.Type == "run" && ev.Status == "running":
				running++
			case ev.Type == "run":
				finished++
			}
			// Pigeonhole: 3 outstanding submits over 3 capacity-1 workers
			// means every worker holds exactly one in-flight spec — so the
			// victim is mid-spec when the signal lands. The short delay lets
			// the third Submit's dispatch (published just before it) settle.
			if !killed && running-finished == 3 && fl != nil {
				killed = true
				fl.mu.Lock()
				victim := fl.cmds[2].Process
				fl.mu.Unlock()
				go func() {
					time.Sleep(20 * time.Millisecond)
					victim.Kill()
				}()
			}
			mu.Unlock()
		}
	}()

	res, coord := runFabric(t, dir, 3, plan,
		func(cfg *Config) { cfg.Bus = bus },
		func(f *fleet) { fl = f })
	sub.Close()
	<-drained

	if !killed {
		t.Fatal("kill trigger never fired (campaign too fast?)")
	}
	if res.Done != len(specs) || res.Failed != 0 {
		t.Fatalf("campaign did not converge: %d done, %d failed of %d",
			res.Done, res.Failed, len(specs))
	}
	if got := coord.Redispatches(); got < 1 {
		t.Errorf("redispatches = %d, want >= 1 (victim held an in-flight spec)", got)
	}
	if deadEvents < 1 {
		t.Errorf("no worker-dead event on the bus")
	}

	// Convergence oracle: every spec's profile validates against its
	// manifest entry, exactly as a fault-free run.
	man, err := campaign.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if !man.Completed(dir, s) {
			t.Errorf("%s: not complete/valid after killed-worker campaign", s.ID())
		}
	}
}

// TestFabricWorkSteal: with every spec homed to shard 0, the other
// worker must steal to contribute — and the campaign finishes with both
// fleet members productive.
func TestFabricWorkSteal(t *testing.T) {
	plan := testPlan()
	specs, _ := plan.Specs()
	dir := t.TempDir()
	res, coord := runFabric(t, dir, 2, plan,
		func(cfg *Config) {
			cfg.Assign = func(string, int) int { return 0 }
		}, nil)
	if res.Done != len(specs) {
		t.Fatalf("%d done of %d", res.Done, len(specs))
	}
	if got := coord.Steals(); got < 1 {
		t.Errorf("steals = %d, want >= 1 (all specs homed to shard 0)", got)
	}
	// Both shards journaled outcomes: the thief's WAL proves it ran
	// stolen specs.
	sums, err := campaign.ShardSummaries(dir)
	if err != nil {
		t.Fatal(err)
	}
	bySh := map[int]campaign.ShardSummary{}
	for _, s := range sums {
		bySh[s.Shard] = s
	}
	if bySh[1].Records == 0 {
		t.Errorf("shard 1 journaled nothing; stealing never executed remotely: %+v", sums)
	}
}

// TestFrameRoundtrip pins the wire format: length-prefixed JSON frames
// survive encode/decode, and oversized or torn frames error instead of
// desynchronizing the stream.
func TestFrameRoundtrip(t *testing.T) {
	spec := campaign.RunSpec{Machine: "SPR-DDR", Variant: "RAJA_Seq", Size: 10_000, Schedule: "default"}
	frames := []*frame{
		{Type: frameHello, Shard: 3, PID: 4242},
		{Type: frameWelcome, Config: &WorkerConfig{OutDir: "/tmp/x", MaxAttempts: 2, HeartbeatEvery: time.Second}},
		{Type: frameAssign, Spec: &spec},
		{Type: frameResult, Result: &wireResult{ID: spec.ID(), Status: campaign.StatusDone, Attempts: 1}},
		{Type: frameHeartbeat, Beat: 17},
		{Type: frameBye},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := writeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, want := range frames {
		got, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d roundtrip:\ngot  %+v\nwant %+v", i, got, want)
		}
	}

	// Torn stream: a length prefix promising more bytes than arrive.
	r = bufio.NewReader(bytes.NewReader([]byte{0, 0, 0, 10, 'x'}))
	if _, err := readFrame(r); err == nil {
		t.Fatal("truncated frame must error")
	}
	// Absurd length: protocol corruption, not a 2 GiB allocation.
	r = bufio.NewReader(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}))
	if _, err := readFrame(r); err == nil {
		t.Fatal("oversized frame must error")
	}
	// A flipped bit anywhere in the body fails the CRC trailer with the
	// sentinel the coordinator counts corrupt frames by.
	buf.Reset()
	if err := writeFrame(&buf, &frame{Type: frameHeartbeat, Beat: 9}); err != nil {
		t.Fatal(err)
	}
	poisoned := buf.Bytes()
	poisoned[len(poisoned)/2] ^= 0x40
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(poisoned))); !errors.Is(err, errFrameChecksum) {
		t.Fatalf("bit-flipped frame: err = %v, want errFrameChecksum", err)
	}
}

// TestWireResultTransience: transience survives the process boundary —
// the one error property the orchestrator's breaker depends on.
func TestWireResultTransience(t *testing.T) {
	spec := campaign.RunSpec{Machine: "SPR-DDR", Variant: "RAJA_Seq", Size: 1, Schedule: "default"}
	tr := &wireResult{ID: spec.ID(), Status: campaign.StatusFailed, Err: "blip", Transient: true}
	if sr := tr.toSpecResult(spec); !resilience.IsTransient(sr.Err) {
		t.Error("transient marker lost crossing the wire")
	}
	hard := &wireResult{ID: spec.ID(), Status: campaign.StatusFailed, Err: "broken"}
	if sr := hard.toSpecResult(spec); resilience.IsTransient(sr.Err) {
		t.Error("non-transient error became transient crossing the wire")
	}
}

// TestFabricHeartbeat: a connected worker's heartbeat frames advance the
// coordinator's liveness counter even when no specs are in flight — the
// signal the per-worker stall watchdog consumes.
func TestFabricHeartbeat(t *testing.T) {
	cfg := Config{Workers: 1, Campaign: "hb", Metrics: new(telemetry.Registry),
		Worker: WorkerConfig{HeartbeatEvery: 50 * time.Millisecond}}
	f := startFleet(t, cfg)
	deadline := time.Now().Add(10 * time.Second)
	for f.coord.Heartbeat() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat frames arrived within 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	f.stop()
}

// BenchmarkFabric measures campaign wall-clock across fleet sizes over
// a fixed CPU-bound plan; each worker runs single-laned so fleet size
// is the only parallelism axis. The specs are deliberately heavy
// (~100ms each) so compute dominates the per-spec fabric overhead
// (assign/result round-trip, profile write, WAL fsync). CI emits these
// as BENCH_fabric.json and gates on 4-worker scaling — meaningful only
// on a host with >= 4 cores; on fewer cores the fleets time-slice one
// another and wall-clock stays flat.
func BenchmarkFabric(b *testing.B) {
	plan := testPlan()
	plan.Sizes = []int{1_000_000, 2_000_000}
	plan.Reps = 1500
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				cfg := Config{Workers: n,
					Worker:   WorkerConfig{OutDir: dir, PoolLanes: 1},
					Campaign: dir, Metrics: new(telemetry.Registry)}
				f := startFleet(b, cfg)
				b.StartTimer()

				res, err := campaign.Run(context.Background(), plan, campaign.Options{
					OutDir: dir, Workers: n, Executor: f.coord,
					Metrics: cfg.Metrics, Campaign: dir,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Failed > 0 {
					b.Fatalf("%d specs failed", res.Failed)
				}

				b.StopTimer()
				f.stop()
				b.StartTimer()
			}
		})
	}
}
