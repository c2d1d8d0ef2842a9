package main

// Per-layer passes of the traced run. Each times calls into one layer's
// public API on the inputs the campaign just used, outside the
// iteration's measured time.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"rajaperf/internal/caliper"
	"rajaperf/internal/campaign"
	"rajaperf/internal/gpusim"
	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
	"rajaperf/internal/raja"
	"rajaperf/internal/telemetry"
	"rajaperf/internal/tma"
)

// ratioKernels are the RAJA-overhead offenders ROADMAP item A names; each
// gets its own kernels.ratio.<name> metric.
var ratioKernels = []string{
	"Basic_INDEXLIST", "Algorithm_SCAN", "Algorithm_SORTPAIRS", "Basic_MULTI_REDUCE", "Basic_REDUCE3_INT",
}

// addSuiteSpans adds, under each spec's Submit span, a span for its suite
// run taken from the profile's collection_begin/collection_end metadata.
func addSuiteSpans(sp *spanLog, te *timedExec, profiles []*caliper.Profile) {
	if sp == nil {
		return
	}
	for _, p := range profiles {
		id := strMeta(p.Metadata, "campaign.spec")
		r, ok := te.submitOf(id)
		if !ok {
			continue
		}
		b, err1 := time.Parse(time.RFC3339Nano, strMeta(p.Metadata, "collection_begin"))
		e, err2 := time.Parse(time.RFC3339Nano, strMeta(p.Metadata, "collection_end"))
		if err1 != nil || err2 != nil {
			continue
		}
		sp.add(span{Parent: r.span, Name: "suite.RunContext", Layer: "suite",
			Spec: id, Lane: r.lane + 1, Start: b, End: e})
	}
}

// layerPasses runs the kernels, model, caliper and cached-query passes.
func (b *bench) layerPasses(ctx context.Context, it *iteration, plan campaign.Plan, spec campaign.RunSpec,
	an *analysisResult, dir string) error {
	sp := b.spans
	id := sp.begin("layers", "bench", 0, "", 0)
	defer sp.end(id)

	kv, err := kernelsPass(ctx, spec, plan, sp, id)
	if err != nil {
		return err
	}
	for k, v := range kv {
		it.Layer[k] = v
	}
	for k, v := range modelPass(plan, spec.Size) {
		it.Layer[k] = v
	}
	cv, err := caliperPass(an.profiles, dir, sp, id)
	if err != nil {
		return err
	}
	for k, v := range cv {
		it.Layer[k] = v
	}

	// A repeat of one sweep cell: served from the query cache.
	const reps = 200
	q := make([]float64, reps)
	for i := range q {
		t := time.Now()
		an.tk.GroupStats(sweepKeys[0], sweepMetrics[0])
		q[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	it.Layer["thicket.query_cached_us"] = median(q)
	return nil
}

// kernelsPass runs every kernel's SetUp → Run → Checksum → TearDown
// lifecycle through the public kernels API at the spec's size, reps and
// pool width, for each host-exec variant. On model-only plans it times
// the metrics-only SetUp and TearDown, since Run is not allowed there.
func kernelsPass(ctx context.Context, spec campaign.RunSpec, plan campaign.Plan, sp *spanLog, parent int) (map[string]float64, error) {
	m, err := machine.ByName(spec.Machine)
	if err != nil {
		return nil, err
	}
	ranks := max(m.Ranks, 1)
	lanes := max(plan.Workers, 1)
	pool := raja.NewPool(lanes)
	defer pool.Close()
	pool.Instrument(true)
	reg := &telemetry.Registry{}
	pool.EnableTelemetry(reg)
	if !plan.Execute {
		kernels.SetModelOnly(true)
		defer kernels.SetModelOnly(false)
	}
	rp := kernels.RunParams{
		Size: max(spec.Size/ranks, 1), Reps: spec.Reps, Workers: lanes,
		GPUBlock: spec.GPUBlock, Ranks: min(ranks, 8), Pool: pool, Ctx: ctx,
	}
	names := spec.Kernels
	if len(names) == 0 {
		names = kernels.Names()
	}

	out := map[string]float64{}
	var setup, checksum, teardown time.Duration
	var bytesC, flopsC float64
	runS := map[kernels.VariantID]float64{}
	groupRatios := map[string][]float64{}
	timed := func(name, kernel string, f func()) time.Duration {
		id := sp.begin(name, "kernels", parent, kernel, 0)
		t := time.Now()
		f()
		d := time.Since(t)
		sp.end(id)
		return d
	}
	for _, name := range names {
		k, err := kernels.New(name)
		if err != nil {
			return nil, err
		}
		info := k.Info()
		setup += timed("kernels.SetUp", name, func() { k.SetUp(rp) })
		if plan.Execute {
			t := map[kernels.VariantID]float64{}
			for _, v := range hostVariants {
				if !info.HasVariant(v) {
					continue
				}
				var runErr error
				t[v] = timed("kernels.Run."+v.String(), name, func() { runErr = k.Run(v, rp) }).Seconds()
				if runErr != nil {
					k.TearDown()
					return nil, fmt.Errorf("kernels pass: %s %s: %w", name, v, runErr)
				}
				runS[v] += t[v]
			}
			checksum += timed("kernels.Checksum", name, func() { k.Checksum() })
			if s, b := t[kernels.RAJASeq], t[kernels.BaseSeq]; s > 0 && b > 0 {
				groupRatios[info.Group.String()] = append(groupRatios[info.Group.String()], s/b)
				if slices.Contains(ratioKernels, name) {
					out["kernels.ratio."+name] = s / b
				}
				am := k.Metrics()
				reps := float64(rp.EffectiveReps(info))
				bytesC += (am.BytesRead + am.BytesWritten) * reps
				flopsC += am.Flops * reps
			}
		}
		teardown += timed("kernels.TearDown", name, k.TearDown)
	}
	out["kernels.setup_s"] = setup.Seconds()
	out["kernels.checksum_s"] = checksum.Seconds()
	out["kernels.teardown_s"] = teardown.Seconds()
	for _, v := range hostVariants {
		out["kernels.run_s."+v.String()] = runS[v]
	}
	for _, g := range kernels.Groups() {
		out["kernels.ratio."+g.String()] = geomean(groupRatios[g.String()])
	}
	out["kernels.bytes_computed"] = bytesC
	out["kernels.flops"] = flopsC
	if s := runS[kernels.RAJASeq]; s > 0 {
		out["kernels.gbs_computed.RAJA_Seq"] = bytesC / s / 1e9
	}
	snap := reg.Snapshot()
	out["raja.busy_s"] = gauge(snap, "raja.pool.busy_sec")
	out["raja.steals"] = gauge(snap, "raja.pool.steals")
	return out, nil
}

// modelPass times the hardware models per call on every kernel's
// analytic metrics and instruction mix, for each machine of the plan at
// the given node size, scaled to node totals as the suite does.
func modelPass(plan campaign.Plan, size int) map[string]float64 {
	kernels.SetModelOnly(true)
	defer kernels.SetModelOnly(false)
	const reps = 20
	var tmaD, gpuD time.Duration
	var tmaN, gpuN int
	for _, name := range plan.Machines {
		m, err := machine.ByName(name)
		if err != nil {
			continue
		}
		ranks := max(m.Ranks, 1)
		rp := kernels.RunParams{Size: max(size/ranks, 1), Ranks: min(ranks, 8)}
		var cpu *tma.Model
		var gpu *gpusim.Device
		if m.Kind == machine.GPU {
			gpu, err = gpusim.NewDevice(m)
		} else {
			cpu, err = tma.NewModel(m)
		}
		if err != nil {
			continue
		}
		for _, k := range kernels.All() {
			k.SetUp(rp)
			am, mix := k.Metrics(), k.Mix()
			k.TearDown()
			scale := float64(ranks)
			nodeAM := kernels.AnalyticMetrics{
				BytesRead: am.BytesRead * scale, BytesWritten: am.BytesWritten * scale, Flops: am.Flops * scale,
			}
			iters := int(kernels.WorkItems(nodeAM, mix))
			if iters < 1 {
				iters = size
			}
			t := time.Now()
			for i := 0; i < reps; i++ {
				if cpu != nil {
					cpu.Analyze(mix, nodeAM, iters)
				} else {
					gpu.Run(mix, gpusim.Launch{Items: iters, BlockSize: raja.DefaultBlock})
				}
			}
			if cpu != nil {
				tmaD += time.Since(t)
				tmaN += reps
			} else {
				gpuD += time.Since(t)
				gpuN += reps
			}
		}
	}
	out := map[string]float64{"model.tma_us": 0, "model.gpusim_us": 0}
	if tmaN > 0 {
		out["model.tma_us"] = float64(tmaD.Nanoseconds()) / 1e3 / float64(tmaN)
	}
	if gpuN > 0 {
		out["model.gpusim_us"] = float64(gpuD.Nanoseconds()) / 1e3 / float64(gpuN)
	}
	return out
}

// caliperPass times profile encode+write and read+decode per profile, on
// up to caliperSample of the campaign's own profiles, and reports the
// mean size of the profiles the campaign wrote.
func caliperPass(profiles []*caliper.Profile, dir string, sp *spanLog, parent int) (map[string]float64, error) {
	const caliperSample = 16
	files, err := filepath.Glob(filepath.Join(dir, "*"+caliper.FileExt))
	if err != nil {
		return nil, err
	}
	var kb float64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			return nil, err
		}
		kb += float64(st.Size()) / 1024
	}
	out := map[string]float64{}
	if len(files) > 0 {
		out["caliper.profile_kb"] = kb / float64(len(files))
	}
	scratch := filepath.Join(dir, "caliper-pass")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	sample := profiles
	if len(sample) > caliperSample {
		sample = sample[:caliperSample]
	}
	var write, read []float64
	for i, p := range sample {
		path := filepath.Join(scratch, fmt.Sprintf("p%d%s", i, caliper.FileExt))
		id := sp.begin("caliper.WriteFile", "caliper", parent, "", 0)
		t := time.Now()
		err := p.WriteFile(path)
		write = append(write, ms(time.Since(t)))
		sp.end(id)
		if err != nil {
			return nil, err
		}
		id = sp.begin("caliper.ReadFile", "caliper", parent, "", 0)
		t = time.Now()
		_, err = caliper.ReadFile(path)
		read = append(read, ms(time.Since(t)))
		sp.end(id)
		if err != nil {
			return nil, err
		}
	}
	out["caliper.write_ms_p50"] = median(write)
	out["caliper.read_ms_p50"] = median(read)
	return out, nil
}
