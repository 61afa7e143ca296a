package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/adaptive"
	"repro/internal/asm"
	"repro/internal/bitarray"
	"repro/internal/cache"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/handoff"
	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/prune"
	"repro/internal/sims"
	"repro/internal/svc"
	"repro/internal/telemetry"
	programs "repro/internal/workload"
)

// Sample counts of the layer probes. The time cap of a traced run sets
// them: nanosecond and microsecond probes take nFast samples, probes of
// a few milliseconds nSlow, and probes that simulate a golden run's
// worth of cycles nRun. Every reported median carries its count.
const (
	nFast = 200
	nSlow = 20
	nRun  = 5
)

// sink defeats dead-code elimination of probed calls.
var sink uint64

// timeN calls fn n times and returns each call's duration in seconds.
func timeN(n int, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = time.Since(t0).Seconds()
	}
	return out
}

// timeBatched times n samples of batch calls each and returns the
// per-call duration in seconds — for calls too short to time alone.
func timeBatched(n, batch int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for s := range out {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn(s*batch + i)
		}
		out[s] = time.Since(t0).Seconds() / float64(batch)
	}
	return out
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// probeBitarray times the innermost loop of every simulation: array
// word reads on the fast path, reads with a stuck-at fault armed (the
// observation slow path), and writes.
func (t *tracedRun) probeBitarray() {
	sp := t.tr.begin("bitarray", "probes")
	defer sp.end()
	const entries = 256
	a := bitarray.New("probe", entries, 64)
	read := func(i int) { sink += a.ReadWord(i%entries, 0) }
	t.timing("bitarray.read_ns", "ns", scale(timeBatched(nFast, 1000, read), 1e9))
	t.timing("bitarray.write_ns", "ns", scale(timeBatched(nFast, 1000, func(i int) { a.WriteWord(i%entries, 0, uint64(i)) }), 1e9))
	a.Arm(bitarray.Fault{Kind: bitarray.Permanent, Entry: 0, Bit: 0, StuckVal: 1})
	a.Tick(1)
	t.timing("bitarray.read_armed_ns", "ns", scale(timeBatched(nFast, 1000, read), 1e9))
}

// probeCache times an L1D-shaped cache in front of flat memory.
func (t *tracedRun) probeCache() {
	sp := t.tr.begin("cache", "probes")
	defer sp.end()
	m := mem.New()
	defer mem.Release(m)
	cfg := cache.Config{Name: "l1d", Size: 32 << 10, LineSize: 64, Ways: 4, Latency: 2}
	c := cache.New(cfg, cache.MemLevel{M: m, Lat: 100})
	var buf [8]byte
	const base = 0x10000
	resident := func(i int) uint64 { return base + uint64(i%256)*64 } // 16 KiB: always resident
	for i := 0; i < 256; i++ {
		c.Read(resident(i), buf[:])
	}
	t.timing("cache.read_hit_ns", "ns", scale(timeBatched(nFast, 1000, func(i int) { c.Read(resident(i), buf[:]) }), 1e9))
	t.timing("cache.write_hit_ns", "ns", scale(timeBatched(nFast, 1000, func(i int) { c.Write(resident(i), buf[:]) }), 1e9))
	// A 1 MiB stride of lines through a 32 KiB cache: every read misses,
	// evicts and refills.
	miss := func(i int) { c.Read(base+uint64(i%16384)*64, buf[:]) }
	t.timing("cache.read_miss_ns", "ns", scale(timeBatched(nFast, 1000, miss), 1e9))
}

// images are the program images the workloads run.
type images struct {
	cisc, risc *asm.Image
}

// probeWorkload times benchmark assembly (workload.ByName + Image) for
// the images the workloads use, and keeps the qsort images.
func (t *tracedRun) probeWorkload() (images, error) {
	sp := t.tr.begin("workload", "probes")
	defer sp.end()
	var (
		imgs images
		err  error
	)
	build := func(name string, target asm.Target) *asm.Image {
		w, e := programs.ByName(name)
		if e != nil {
			err = e
			return nil
		}
		img, e := w.Image(target)
		if e != nil {
			err = e
		}
		return img
	}
	xs := timeN(nSlow, func() {
		imgs.cisc = build("qsort", asm.TargetCISC)
		imgs.risc = build("qsort", asm.TargetRISC)
		build("sha", asm.TargetCISC)
	})
	t.timing("workload.build_ms", "ms", scale(xs, 1e3))
	return imgs, err
}

// probeSims times one boot of each tool (Factory()() plus handing the
// RAM back, as every injection run does) and, on fault-free qsort runs,
// the detailed cores' speed in simulated cycles per host second.
func (t *tracedRun) probeSims() error {
	for _, tool := range sims.Tools() {
		layer := layerOf(tool)
		f, err := cli.Resolve(tool, "qsort")
		if err != nil {
			return err
		}
		sp := t.tr.begin("sims", "boot "+tool)
		boot := timeN(nFast, func() { release(f()) })
		sp.end()
		t.timing("sims.boot_us_"+tool, "us", scale(boot, 1e6))
		t.unit["boot."+tool] = medianOf(boot)

		sp = t.tr.begin(layer, "golden run "+tool)
		var cycles, instrs uint64
		var rates []float64
		for i := 0; i < nRun; i++ {
			sim := f()
			t0 := time.Now()
			res := sim.Run(1 << 62)
			el := time.Since(t0).Seconds()
			release(sim)
			if res.Status != core.RunCompleted {
				sp.end()
				return fmt.Errorf("%s fault-free qsort run ended %v", tool, res.Status)
			}
			cycles, instrs = res.Cycles, res.Committed
			rates = append(rates, float64(res.Cycles)/el/1e6)
		}
		sp.endCount(int64(nRun))
		prefix := layer + ".x86"
		if tool == sims.GeFINARM {
			prefix = layer + ".arm"
		}
		t.timing(prefix+"_mcycles_per_s", "Mcycles/s", rates)
		t.set(prefix+"_golden_cycles", float64(cycles), "count")
		t.set(prefix+"_golden_instrs", float64(instrs), "count")
		t.unit["cycle."+tool] = 1 / (medianOf(rates) * 1e6)

		if tool == sims.GeFINARM {
			continue // checkpoint/restore is timed on the two x86 tools
		}
		if err := t.probeCheckpoint(layer, tool, f, cycles); err != nil {
			return err
		}
	}
	return nil
}

func release(sim core.Simulator) {
	if r, ok := sim.(interface{ ReleaseMemory() }); ok {
		r.ReleaseMemory()
	}
}

// probeCheckpoint times Checkpoint on a machine drained at mid-run
// (nRun fresh machines: a repeated capture on one machine would share
// every page with the first) and Restore into freshly booted machines.
func (t *tracedRun) probeCheckpoint(layer, tool string, f core.Factory, cycles uint64) error {
	sp := t.tr.begin(layer, "checkpoint/restore "+tool)
	defer sp.end()
	var (
		state any
		ckpt  []float64
	)
	for i := 0; i < nRun; i++ {
		sim := f()
		ck, ok := sim.(core.Checkpointer)
		if !ok {
			return fmt.Errorf("%s cannot checkpoint", tool)
		}
		if _, _, err := ck.RunTo(cycles / 2); err != nil {
			return err
		}
		t0 := time.Now()
		st, err := ck.Checkpoint()
		ckpt = append(ckpt, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		state = st
		release(sim)
	}
	// Only the Restore call is timed; boot has its own probe.
	var restore []float64
	for i := 0; i < nSlow; i++ {
		sim := f()
		t0 := time.Now()
		err := sim.(core.Checkpointer).Restore(state)
		restore = append(restore, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		release(sim)
	}
	t.timing(layer+".checkpoint_ms", "ms", scale(ckpt, 1e3))
	t.timing(layer+".restore_ms", "ms", scale(restore, 1e3))
	t.unit["restore."+tool] = medianOf(restore)
	return nil
}

// probeInterp times the functional tier on whole qsort runs and reads
// the predecoded-instruction cache's hit rate over them.
func (t *tracedRun) probeInterp(imgs images) error {
	sp := t.tr.begin("interp", "probes")
	defer sp.end()
	h0, m0 := interp.DecodeCacheStats()
	for _, p := range []struct {
		name string
		img  *asm.Image
	}{{"cisc", imgs.cisc}, {"risc", imgs.risc}} {
		var rates []float64
		for i := 0; i < nSlow; i++ {
			t0 := time.Now()
			res := interp.Run(p.img, 1<<62)
			el := time.Since(t0).Seconds()
			if res.Outcome != interp.Completed {
				return fmt.Errorf("interp %s qsort ended %v", p.name, res.Outcome)
			}
			rates = append(rates, float64(res.Steps)/el/1e6)
		}
		t.timing("interp."+p.name+"_minstr_per_s", "Minstr/s", rates)
		t.unit["step."+p.name] = 1 / (medianOf(rates) * 1e6)
	}
	h1, m1 := interp.DecodeCacheStats()
	if d := float64(h1-h0) + float64(m1-m0); d > 0 {
		t.set("interp.decode_hit_rate", float64(h1-h0)/d, "ratio")
	} else {
		t.set("interp.decode_hit_rate", 0, "ratio")
	}
	return nil
}

// probeHandoff times the three state transfers of a windowed run on a
// mid-run qsort state: seeding a freshly booted core, capturing it back
// (as a short window leaves it: drained, few dirty pages), and seeding
// the functional tier. It also times the paged RAM snapshot and restore
// under them.
func (t *tracedRun) probeHandoff(imgs images) error {
	sp := t.tr.begin("handoff", "probes")
	defer sp.end()
	m := interp.New(imgs.cisc)
	whole := interp.Run(imgs.cisc, 1<<62)
	m.Continue(whole.Steps / 2)
	mid := m.Capture()
	m.Release()

	f, err := cli.Resolve(sims.GeFINX86, "qsort")
	if err != nil {
		return err
	}
	var seedCore, capture, seedInterp []float64
	for i := 0; i < nFast; i++ {
		sim := f()
		wi, ok := sim.(core.Windower)
		if !ok {
			return fmt.Errorf("%s cannot window", sims.GeFINX86)
		}
		t0 := time.Now()
		wi.SeedArch(mid)
		t1 := time.Now()
		st, err := wi.CaptureArch()
		t2 := time.Now()
		if err != nil {
			return err
		}
		im := interp.Seed(imgs.cisc, st)
		t3 := time.Now()
		im.Release()
		release(sim)
		seedCore = append(seedCore, t1.Sub(t0).Seconds())
		capture = append(capture, t2.Sub(t1).Seconds())
		seedInterp = append(seedInterp, t3.Sub(t2).Seconds())
	}
	t.timing("handoff.seed_core_us", "us", scale(seedCore, 1e6))
	t.timing("handoff.capture_us", "us", scale(capture, 1e6))
	t.timing("handoff.seed_interp_us", "us", scale(seedInterp, 1e6))
	t.unit["handoff.enter"] = medianOf(seedCore)
	t.unit["handoff.exit"] = medianOf(capture) + medianOf(seedInterp)
	t.probeMem(mid)
	return nil
}

// probeMem times RestorePaged into a fresh memory and SnapshotPaged
// with every resident page of the qsort image dirty (the first rung of
// a ladder; later rungs copy only what changed).
func (t *tracedRun) probeMem(st *handoff.State) {
	sp := t.tr.begin("mem", "probes")
	defer sp.end()
	var restore, snap []float64
	var one [1]byte
	for i := 0; i < nFast; i++ {
		m := mem.New()
		t0 := time.Now()
		m.RestorePaged(st.Mem)
		restore = append(restore, time.Since(t0).Seconds())
		for p := 0; p < int(mem.Size/mem.PageSize); p++ {
			if st.Mem.Page(p) != nil {
				m.RawRead(uint64(p)*mem.PageSize, one[:])
				m.RawWrite(uint64(p)*mem.PageSize, one[:])
			}
		}
		t0 = time.Now()
		s := m.SnapshotPaged()
		snap = append(snap, time.Since(t0).Seconds())
		if s.Page(0) != nil {
			sink++
		}
		mem.Release(m)
	}
	t.timing("mem.restore_us", "us", scale(restore, 1e6))
	t.timing("mem.snapshot_us", "us", scale(snap, 1e6))
}

// probeFault times mask generation, the fsync'd journal (the write and
// the read beside it) and the result index.
func (t *tracedRun) probeFault() error {
	sp := t.tr.begin("fault", "probes")
	defer sp.end()
	spec := fault.GeneratorSpec{Structure: "l1d.data", Entries: 512, BitsPerEntry: 512,
		MaxCycle: 1 << 20, Model: fault.ModelTransient, Count: 16000, Seed: poolSeed}
	var genErr error
	gen := timeN(nSlow, func() {
		if _, err := fault.Generate(spec); err != nil {
			genErr = err
		}
	})
	if genErr != nil {
		return genErr
	}
	t.timing("fault.generate_kmasks_per_s", "kmasks/s", invert(gen, float64(spec.Count)/1e3))

	path := filepath.Join(t.dir, "probe.journal.jsonl")
	j, err := fault.OpenJournal(path)
	if err != nil {
		return err
	}
	rec, err := json.Marshal(core.LogRecord{MaskID: 1, Status: "completed", OutputHash: "0123456789abcdef", OutputMatch: true,
		Sites: []fault.Site{{Structure: "l1d.data", Entry: 3, Bit: 5, Model: fault.ModelTransient, Cycle: 1234}}})
	if err != nil {
		return err
	}
	var appErr error
	i := 0
	app := timeN(nFast, func() {
		i++
		if err := j.Append(fault.JournalEntry{Campaign: "probe", MaskID: i, Record: rec}); err != nil {
			appErr = err
		}
	})
	if appErr != nil {
		return appErr
	}
	if err := j.Close(); err != nil {
		return err
	}
	t.timing("fault.journal_append_us", "us", scale(app, 1e6))
	t.unit["journal.append"] = medianOf(app)
	var readErr error
	replay := timeN(nSlow, func() {
		es, err := fault.ReadJournalFile(path)
		if err != nil || len(es) != nFast {
			readErr = fmt.Errorf("journal replay read %d of %d entries: %v", len(es), nFast, err)
		}
	})
	if readErr != nil {
		return readErr
	}
	t.timing("fault.journal_replay_kentries_per_s", "kentries/s", invert(replay, nFast/1e3))

	idx, err := fault.NewResultIndex(filepath.Join(t.dir, "probe.index"))
	if err != nil {
		return err
	}
	cells := make([]fault.OutcomeIndex, 8)
	for c := range cells {
		cells[c] = fault.OutcomeIndex{Key: fmt.Sprint("cell", c), Runs: 750,
			Classes: map[string]int{"Masked": 700, "SDC": 40, "Crash": 10}, Shares: map[string]float64{"Masked": 0.93}}
	}
	var idxErr error
	build := timeN(nSlow, func() {
		if err := idx.Store("probe", cells); err != nil {
			idxErr = err
		}
	})
	load := timeN(nFast, func() {
		if _, err := idx.Load("probe"); err != nil {
			idxErr = err
		}
	})
	if idxErr != nil {
		return idxErr
	}
	t.timing("fault.index_build_ms", "ms", scale(build, 1e3))
	t.timing("fault.index_load_us", "us", scale(load, 1e6))
	return nil
}

// invert turns per-call seconds into a rate of `amount` per call.
func invert(secs []float64, amount float64) []float64 {
	out := make([]float64, len(secs))
	for i, s := range secs {
		out[i] = amount / s
	}
	return out
}

// buildCache fills the shared golden cache for the qsort rows of the
// windowed workloads the way a cold campaign does, timing each cold
// GoldenCache build as it happens: checkpoint ladder, liveness profiles
// and commit signature. It returns the ladder of the last row.
func (t *tracedRun) buildCache() error {
	var ladder, profiles, signature []float64
	for _, tool := range []string{sims.MaFINX86, sims.GeFINX86} {
		f, err := cli.Resolve(tool, "qsort")
		if err != nil {
			return err
		}
		if _, err := t.cache.Golden(tool, "qsort", f); err != nil {
			return err
		}
		sp := t.tr.begin("core", "GoldenCache.Ladder "+tool)
		t0 := time.Now()
		rungs, err := t.cache.Ladder(tool, "qsort", f, windowedKnobs.CheckpointLadder)
		ladder = append(ladder, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return err
		}
		sp = t.tr.begin("core", "GoldenCache.Profiles "+tool)
		t0 = time.Now()
		_, err = t.cache.Profiles(tool, "qsort", f, rungs, []string{"l1d.data", "rf.int"})
		profiles = append(profiles, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return err
		}
		sp = t.tr.begin("core", "GoldenCache.CommitSignature "+tool)
		t0 = time.Now()
		_, err = t.cache.CommitSignature(tool, "qsort", f)
		signature = append(signature, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return err
		}
		t.rungs[tool] = rungs
	}
	t.timing("core.ladder_build_ms", "ms", scale(ladder, 1e3))
	t.timing("core.profiles_build_ms", "ms", scale(profiles, 1e3))
	t.timing("core.signature_build_ms", "ms", scale(signature, 1e3))
	return nil
}

// probeCore times the per-run and per-shard entry points of core on
// the shared warm cache.
func (t *tracedRun) probeCore() error {
	sp := t.tr.begin("core", "probes")
	defer sp.end()

	// RunOne: a whole boot-to-outcome detailed run, over every other
	// mask of the detailed-diff population.
	dd, err := workloadByName("detailed-diff")
	if err != nil {
		return err
	}
	cfg, err := dd.population(t.seed, t.cache)
	if err != nil {
		return err
	}
	var boot []float64
	var recs []core.LogRecord
	for _, cell := range cfg.Campaigns {
		f, err := cli.Resolve(cell.Tool, cell.Benchmark)
		if err != nil {
			return err
		}
		golden, err := t.cache.Golden(cell.Tool, cell.Benchmark, f)
		if err != nil {
			return err
		}
		for i := 0; i < len(cell.Masks); i += 2 {
			t0 := time.Now()
			rec, err := core.RunOne(f, cell.Masks[i], golden, 0, true)
			boot = append(boot, time.Since(t0).Seconds())
			if err != nil {
				return err
			}
			recs = append(recs, rec)
		}
	}
	t.timing("core.run_boot_ms_p50", "ms", scale(boot, 1e3))

	// RunOneFrom the top rung: restore plus the last stretch of the run.
	tool := sims.GeFINX86
	f, err := cli.Resolve(tool, "qsort")
	if err != nil {
		return err
	}
	golden, err := t.cache.Golden(tool, "qsort", f)
	if err != nil {
		return err
	}
	rungs := t.rungs[tool]
	if len(rungs) == 0 {
		return fmt.Errorf("%s/qsort has no checkpoint ladder", tool)
	}
	top := rungs[len(rungs)-1]
	entries, bits, _, err := t.cache.Geometry(tool, "qsort", f, "rf.int")
	if err != nil {
		return err
	}
	masks, err := fault.Generate(fault.GeneratorSpec{Structure: "rf.int", Entries: entries, BitsPerEntry: bits,
		MaxCycle: golden.Cycles, Model: fault.ModelTransient, Count: 20 * nSlow, Seed: poolSeed})
	if err != nil {
		return err
	}
	var restored []float64
	for _, m := range masks {
		if m.Sites[0].Cycle <= top.Cycle || len(restored) == nSlow {
			continue
		}
		t0 := time.Now()
		if _, err := core.RunOneFrom(f, top.State, top.Cycle, m, golden, 0, true); err != nil {
			return err
		}
		restored = append(restored, time.Since(t0).Seconds())
	}
	t.timing("core.run_restore_ms_p50", "ms", scale(restored, 1e3))

	// Classification and the logs repository.
	classify := timeBatched(nFast, 10, func(int) { sink += uint64(core.Parser{}.ParseAll(recs).Total) })
	t.timing("core.classify_ns", "ns", scale(classify, 1e9/float64(len(recs))))
	t.unit["classify"] = medianOf(classify) / float64(len(recs))
	logs, err := core.NewLogsRepo(filepath.Join(t.dir, "probe.logs"))
	if err != nil {
		return err
	}
	big := &core.CampaignResult{Golden: core.GoldenInfo{Tool: tool, Benchmark: "qsort", Structure: "rf.int"}}
	for len(big.Records) < 750 {
		big.Records = append(big.Records, recs...)
	}
	var logErr error
	store := timeN(nSlow, func() {
		if err := logs.Store("probe", big); err != nil {
			logErr = err
		}
	})
	load := timeN(nSlow, func() {
		if _, err := logs.Load("probe"); err != nil {
			logErr = err
		}
	})
	if logErr != nil {
		return logErr
	}
	t.timing("core.logs_store_ms", "ms", scale(store, 1e3))
	t.timing("core.logs_load_ms", "ms", scale(load, 1e3))
	return nil
}

// probeShards times core.RunShard on the fleet config: the first shard
// on a fresh cache (what every shard costs a worker that keeps no
// cache), and a one-mask shard on the warm cache (the per-shard fixed
// cost: spec rebuild, plan, pool start). It leaves the shared cache warm
// for every cell's shards.
func (t *tracedRun) probeShards(cfg core.CampaignConfig) error {
	sp := t.tr.begin("core", "RunShard probes")
	defer sp.end()
	var shardErr error
	shard := func(cache *core.GoldenCache, cell, n int) {
		if _, err := core.RunShard(cfg, cell, 0, n, cli.Resolve, core.Attach{Golden: cache}); err != nil {
			shardErr = err
		}
	}
	cold := timeN(2, func() { shard(core.NewGoldenCache(), 0, shardSize) })
	for cell := range cfg.Campaigns {
		shard(t.cache, cell, 1) // a shard plans against its own cell's profiles
	}
	warm := timeN(nSlow, func() { shard(t.cache, 0, 1) })
	if shardErr != nil {
		return shardErr
	}
	t.timing("core.shard_cold_ms", "ms", scale(cold, 1e3))
	t.timing("core.shard_warm_ms", "ms", scale(warm, 1e3))
	return nil
}

// probePrune times prune.BuildPlan on one pruned-ladder cell's
// population against the profiles of its ladder.
func (t *tracedRun) probePrune() error {
	sp := t.tr.begin("prune", "probes")
	defer sp.end()
	pl, err := workloadByName("pruned-ladder")
	if err != nil {
		return err
	}
	tool, structure := sims.GeFINX86, "l1d.data"
	f, err := cli.Resolve(tool, pl.benchmark)
	if err != nil {
		return err
	}
	golden, err := t.cache.Golden(tool, pl.benchmark, f)
	if err != nil {
		return err
	}
	rungs, err := t.cache.Ladder(tool, pl.benchmark, f, pl.knobs.CheckpointLadder)
	if err != nil {
		return err
	}
	profiles, err := t.cache.Profiles(tool, pl.benchmark, f, rungs, []string{structure})
	if err != nil {
		return err
	}
	entries, bits, _, err := t.cache.Geometry(tool, pl.benchmark, f, structure)
	if err != nil {
		return err
	}
	masks, err := fault.Generate(fault.GeneratorSpec{Structure: structure, Entries: entries, BitsPerEntry: bits,
		MaxCycle: golden.Cycles, Model: fault.ModelTransient, Count: 2000, Seed: poolSeed})
	if err != nil {
		return err
	}
	// The rung each mask's run would restore from: the highest rung
	// captured strictly before its fault (core's selection rule).
	rungOf := make([]int, len(masks))
	for i, m := range masks {
		rungOf[i] = -1
		for r, rung := range rungs {
			if rung.Cycle >= m.Sites[0].Cycle {
				break
			}
			rungOf[i] = r
		}
	}
	var plan *prune.Plan
	xs := timeN(nSlow, func() { plan = prune.BuildPlan(masks, profiles, rungOf) })
	if len(plan.Decisions) != len(masks) {
		return fmt.Errorf("prune plan has %d decisions for %d masks", len(plan.Decisions), len(masks))
	}
	t.timing("prune.plan_kmasks_per_s", "kmasks/s", invert(xs, float64(len(masks))/1e3))
	t.unit["plan.mask"] = medianOf(xs) / float64(len(masks))
	return nil
}

// probeTelemetry times the per-event cost of the collector with a trace
// sink attached, the trace flush, and one decision of the adaptive
// stopping rule.
func (t *tracedRun) probeTelemetry() error {
	sp := t.tr.begin("telemetry", "probes")
	defer sp.end()
	col := telemetry.New()
	trace := telemetry.NewTraceSink()
	col.AddSink(trace)
	cs := col.Campaign("probe", "gefin-x86", "sha", "l1d.data")
	ev := telemetry.RunEvent{Campaign: "probe", Status: "pruned", Class: "Masked", Pruned: "dead", RepMask: -1,
		Sites: []fault.Site{{Structure: "l1d.data", Entry: 3, Bit: 5, Model: fault.ModelTransient, Cycle: 1234}}}
	xs := timeBatched(nFast, 30, func(i int) {
		ev.MaskID = i
		col.RunDone(cs, ev)
	})
	t.timing("telemetry.run_event_ns", "ns", scale(xs, 1e9))
	t.unit["event"] = medianOf(xs)
	var buf bytes.Buffer
	var flushErr error
	flush := timeN(nSlow, func() {
		buf.Reset()
		if err := trace.Flush(&buf); err != nil {
			flushErr = err
		}
	})
	if flushErr != nil {
		return flushErr
	}
	t.timing("telemetry.trace_flush_ms", "ms", scale(flush, 1e3))

	est, err := adaptive.New(adaptive.Config{Margin: 0.03, Confidence: 0.99, Classes: core.ClassStrings()})
	if err != nil {
		return err
	}
	dec := timeBatched(nFast, 100, func(i int) {
		est.Add("Masked")
		if est.Decided() {
			sink++
		}
	})
	t.timing("adaptive.decision_ns", "ns", scale(dec, 1e9))
	return nil
}

// probeDistPlan times dist.New: shard planning of the fleet config.
func (t *tracedRun) probeDistPlan(cfg core.CampaignConfig) error {
	sp := t.tr.begin("dist", "New")
	defer sp.end()
	var planErr error
	xs := timeN(nSlow, func() {
		c, err := dist.New(cfg, dist.CoordinatorOptions{ShardSize: shardSize})
		if err != nil {
			planErr = err
			return
		}
		c.Close()
	})
	if planErr != nil {
		return planErr
	}
	t.timing("dist.plan_ms", "ms", scale(xs, 1e3))
	return nil
}

// probeSpool times Spool.Put of a fleet-config entry (written whole and
// fsync'd on every state change of a campaign).
func (t *tracedRun) probeSpool(cfg core.CampaignConfig) error {
	sp := t.tr.begin("svc", "Spool.Put")
	defer sp.end()
	spool, err := svc.OpenSpool(filepath.Join(t.dir, "probe.spool"))
	if err != nil {
		return err
	}
	e := &svc.SpoolEntry{SchemaVersion: svc.SpoolSchemaVersion, ID: "probe", State: "queued", Config: cfg}
	var putErr error
	xs := timeN(nSlow, func() {
		if err := spool.Put(e); err != nil {
			putErr = err
		}
	})
	if putErr != nil {
		return putErr
	}
	t.timing("svc.spool_put_us", "us", scale(xs, 1e6))
	return os.RemoveAll(spool.Dir())
}
