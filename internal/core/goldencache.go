package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitarray"
	"repro/internal/divergence"
	"repro/internal/prune"
	"repro/internal/telemetry"
)

// maxGoldenRows bounds the {tool, benchmark} rows a GoldenCache keeps:
// the paper's full matrix (3 tools × 10 benchmarks) fits, and a fleet
// worker or campaign service that lives for weeks cannot grow without
// limit. Past the bound the least recently used row is dropped.
const maxGoldenRows = 32

// GoldenCache memoizes, per {tool, benchmark} row, the fault-free
// reference run and every artifact derived from it: structure
// geometries and live-entry lists, checkpoint ladders, liveness
// profiles, the commit-stream signature and functional fast-forward
// rungs. A figure matrix shares one golden run across every structure
// campaign of a row; a fleet worker shares all of it across every shard
// of every campaign it serves.
//
// The ladders, profiles and signature are observations of the same
// fault-free trajectory, so one replay of the row builds whichever of
// them a lookup misses. Each artifact is keyed by exactly what
// determines it — the row, plus the ladder's K, the profiled structure
// or the fast-forward quantum — and the simulators are deterministic,
// so a hit returns what a rebuild would have produced:
// sharing across shards, campaigns and configs leaves every output
// byte-identical. Callers hold what they were handed by reference, so
// evicting a row never invalidates a run in flight; it only means the
// next caller rebuilds. Safe for concurrent use.
type GoldenCache struct {
	// Logf, when non-nil, receives one line per golden run and per
	// replay naming the row, every artifact built and the wall time. Set
	// it before the first use.
	Logf func(format string, args ...any)

	mu        sync.Mutex
	rows      map[goldenKey]*goldenEntry
	clock     uint64 // recency stamps
	evictions uint64

	// counts splits each artifact kind's lookups into hits and builds;
	// replays counts the fault-free replays that built them.
	counts  struct{ golden, ladder, profile, signature hitCount }
	replays atomic.Uint64
	// ffHits and ffBuilds count window entries seeded from a memoized
	// fast-forward rung vs. rung captures built; the rows' ladders
	// update them on the run path.
	ffHits, ffBuilds atomic.Uint64
}

// hitCount splits the lookups of one artifact kind into those served
// from memory and those that had to build.
type hitCount struct{ hits, builds atomic.Uint64 }

func (h *hitCount) note(built bool) {
	if built {
		h.builds.Add(1)
	} else {
		h.hits.Add(1)
	}
}

type goldenKey struct{ tool, bench string }

type goldenEntry struct {
	key  goldenKey
	used uint64 // recency stamp, under GoldenCache.mu
	// bytes estimates the heap the row's artifacts retain.
	bytes atomic.Int64

	// The reference run and what is kept of its finished machine: the
	// geometry and the live entries of every structure, and which
	// derived artifacts it can build. The machine itself (RAM image and
	// every array) is let go. Written once under once, read-only
	// afterwards.
	once                          sync.Once
	golden                        GoldenInfo
	geom                          map[string]StructureGeom
	live                          map[string][]int
	checkpoints, profiled, probed bool
	err                           error

	// The derived artifacts, all built by the row's replays (see
	// derived) under one lock.
	mu       sync.Mutex
	ladders  map[int][]LadderRung // by K
	profiles prune.Profiles       // by structure
	sig      *divergence.Signature

	ffMu sync.Mutex
	ff   *ffLadder
}

// NewGoldenCache returns an empty memoizer.
func NewGoldenCache() *GoldenCache {
	return &GoldenCache{rows: make(map[goldenKey]*goldenEntry)}
}

// entry returns the row's entry, creating it if needed, marks it most
// recently used and drops the least recently used row past the bound.
func (c *GoldenCache) entry(tool, bench string) *goldenEntry {
	key := goldenKey{tool, bench}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.rows[key]
	if !ok {
		e = &goldenEntry{key: key}
		c.rows[key] = e
	}
	c.clock++
	e.used = c.clock
	if len(c.rows) > maxGoldenRows {
		var oldest *goldenEntry
		for _, r := range c.rows {
			if oldest == nil || r.used < oldest.used {
				oldest = r
			}
		}
		delete(c.rows, oldest.key)
		c.evictions++
	}
	return e
}

// row returns the row's entry with its reference run done, simulating
// it on f's machine, under one of pool's slots, only on the first call.
func (c *GoldenCache) row(pool *planPool, tool, bench string, f Factory) (*goldenEntry, error) {
	e := c.entry(tool, bench)
	built := false
	e.once.Do(func() {
		built = true
		defer c.logBuild(e, "golden run", time.Now())
		pool.work(func() { e.err = e.runGolden(f, bench) })
	})
	c.counts.golden.note(built)
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

// runGolden performs the row's reference run and keeps the geometry and
// the live entries of every structure of the finished machine.
func (e *goldenEntry) runGolden(f Factory, bench string) error {
	golden, sim, err := goldenRun(f)
	if err != nil {
		return err
	}
	e.golden = golden
	e.golden.Benchmark = bench
	e.ladders, e.profiles = make(map[int][]LadderRung), make(prune.Profiles)
	_, e.checkpoints = sim.(Checkpointer)
	_, e.profiled = sim.(CycleSource)
	_, e.probed = sim.(CommitProbed)
	arrs := sim.Structures()
	e.geom = make(map[string]StructureGeom, len(arrs))
	e.live = make(map[string][]int, len(arrs))
	for name, arr := range arrs {
		e.geom[name] = StructureGeom{Name: name, Entries: arr.Entries(), BitsPerEntry: arr.BitsPerEntry()}
		var live []int
		for i := 0; i < arr.Entries(); i++ {
			if arr.EntryValid(i) {
				live = append(live, i)
			}
		}
		e.live[name] = live
		e.bytes.Add(int64(8 * len(live)))
	}
	release(sim)
	return nil
}

// logBuild reports one cold build on Logf.
func (c *GoldenCache) logBuild(e *goldenEntry, artifact string, start time.Time) {
	if c.Logf != nil {
		c.Logf("golden cache: %s/%s: built %s in %s", e.key.tool, e.key.bench, artifact, time.Since(start).Round(time.Millisecond))
	}
}

// Golden returns the memoized fault-free reference of the {tool, bench}
// row, simulating it on f's machine only on the first call. The returned
// GoldenInfo carries Benchmark but no Structure; campaign code copies it
// and fills the cell-specific fields.
//
// The exported lookups build on the caller's goroutine; a campaign's
// plan calls their unexported twins with its own pool instead (see
// planPool).
func (c *GoldenCache) Golden(tool, bench string, f Factory) (GoldenInfo, error) {
	return c.golden(nil, tool, bench, f)
}

func (c *GoldenCache) golden(pool *planPool, tool, bench string, f Factory) (GoldenInfo, error) {
	e, err := c.row(pool, tool, bench, f)
	if err != nil {
		return GoldenInfo{}, err
	}
	g := e.golden
	// Hand out a private stats map: cells of a matrix must not alias.
	g.Stats = make(map[string]uint64, len(e.golden.Stats))
	for k, v := range e.golden.Stats {
		g.Stats[k] = v
	}
	return g, nil
}

// Runs reports how many golden simulations the cache actually performed
// (as opposed to served from memory) — the figure tests assert exactly
// one per {tool, benchmark} row, the fleet tests one per row per worker.
func (c *GoldenCache) Runs() int {
	return int(c.counts.golden.builds.Load()) //nolint:gosec // a count of simulations
}

// Observe fills the cache fields of a telemetry snapshot: what the
// cache holds and how its lookups split into memoized hits and builds,
// per artifact kind. Collectors poll it as their cache source.
// (Geometry, live-entry and derived-artifact lookups route through the
// reference run, so their reuse of it counts as golden hits too.)
func (c *GoldenCache) Observe(s *telemetry.Snapshot) {
	n := &c.counts
	s.GoldenRuns, s.GoldenHits = n.golden.builds.Load(), n.golden.hits.Load()
	s.LadderBuilds, s.LadderHits = n.ladder.builds.Load(), n.ladder.hits.Load()
	s.ProfileBuilds, s.ProfileHits = n.profile.builds.Load(), n.profile.hits.Load()
	s.SignatureBuilds, s.SignatureHits = n.signature.builds.Load(), n.signature.hits.Load()
	s.FFRungBuilds, s.FFRungHits = c.ffBuilds.Load(), c.ffHits.Load()
	c.mu.Lock()
	defer c.mu.Unlock()
	s.CacheRows = uint64(len(c.rows))
	s.CacheEvictions = c.evictions
	var bytes int64
	for _, e := range c.rows {
		bytes += e.bytes.Load()
	}
	s.CacheBytes = uint64(bytes) //nolint:gosec // only ever added to
}

// Geometry returns the {entries, bitsPerEntry} geometry of one structure
// on the row's machine. ok is false when the tool has no such structure.
func (c *GoldenCache) Geometry(tool, bench string, f Factory, structure string) (entries, bits int, ok bool, err error) {
	e, err := c.row(nil, tool, bench, f)
	if err != nil {
		return 0, 0, false, err
	}
	g, ok := e.geom[structure]
	return g.Entries, g.BitsPerEntry, ok, nil
}

// LiveEntries returns the entries of structure holding live data at the
// end of the row's golden run — the LiveOnly fault population (the
// pre-scheduler path simulated a twin from boot for every campaign).
// Callers must not modify the returned slice.
func (c *GoldenCache) LiveEntries(tool, bench string, f Factory, structure string) ([]int, error) {
	e, err := c.row(nil, tool, bench, f)
	if err != nil {
		return nil, err
	}
	live, ok := e.live[structure]
	if !ok {
		return nil, fmt.Errorf("core: %s has no structure %q", e.golden.Tool, structure)
	}
	return live, nil
}

// Ladder returns the memoized K-rung checkpoint ladder of the {tool,
// bench} row, capturing it on first use by chaining RunTo/Checkpoint on
// the row's replay. A simulator that cannot checkpoint has an empty
// ladder, built and counted never: its runs boot from scratch.
func (c *GoldenCache) Ladder(tool, bench string, f Factory, k int) ([]LadderRung, error) {
	d, err := c.derived(nil, tool, bench, f, derivedWant{k: k})
	return d.rungs, err
}

// stateBytes estimates the heap a captured machine state retains; the
// simulators' checkpoint and handoff types report it, anything else
// counts as nothing.
func stateBytes(state any) int {
	if s, ok := state.(interface{ SizeBytes() int }); ok {
		return s.SizeBytes()
	}
	return 0
}

// Profiles returns the memoized liveness profiles of the row's boot run
// for the named structures, profiling the missing ones on the row's
// replay. A shard worker re-planning the same campaign hits the memo
// instead of re-simulating a golden replay per shard. The result holds
// one profile set: every checkpoint rung is the boot run in flight, so
// the boot profile is the profile of every trajectory a run can follow,
// and rungs is ignored — it stays in the signature only because the
// benchmark module in bench/ compiles against it. A nil result (no
// error) means the simulator cannot be profiled and pruning is off for
// the row.
func (c *GoldenCache) Profiles(tool, bench string, f Factory, rungs []LadderRung, structures []string) ([]prune.Profiles, error) {
	d, err := c.derived(nil, tool, bench, f, derivedWant{structures: structures})
	if d.profiles == nil {
		return nil, err
	}
	return []prune.Profiles{d.profiles}, nil
}

// CommitSignature returns the memoized golden commit-stream signature
// of the {tool, bench} row — the per-block hash sequence of fault-free
// committed-instruction PCs that divergence probes compare injected
// runs against — recording it on first use on the row's replay. A nil
// signature (no error) means the simulator exposes no commit probe;
// divergence records for the row then carry the corruption footprint
// but no divergence verdict.
func (c *GoldenCache) CommitSignature(tool, bench string, f Factory) (*divergence.Signature, error) {
	d, err := c.derived(nil, tool, bench, f, derivedWant{sig: true})
	return d.sig, err
}

// derivedWant names the artifacts a lookup needs from the row's
// fault-free replay: the K-rung checkpoint ladder (k 0: none), the
// liveness profiles of the named structures and the commit signature.
type derivedWant struct {
	k          int
	structures []string
	sig        bool
}

// String names the artifacts, for build log lines and replay errors.
func (w derivedWant) String() string {
	var parts []string
	if w.k > 0 {
		parts = append(parts, fmt.Sprintf("%d-rung checkpoint ladder", w.k))
	}
	if len(w.structures) > 0 {
		parts = append(parts, fmt.Sprintf("liveness profiles of %q", w.structures))
	}
	if w.sig {
		parts = append(parts, "commit signature")
	}
	return strings.Join(parts, ", ")
}

// derivedArtifacts is what a lookup gets: nil where it asked for
// nothing or the row's machine cannot build it.
type derivedArtifacts struct {
	rungs    []LadderRung
	profiles prune.Profiles
	sig      *divergence.Signature
}

// derived returns the row's artifacts named by want, building every
// missing one on a single fault-free replay (under one of pool's slots)
// and memoizing it: ladders by K, profiles by structure — profiling is
// observational, so a structure's profile does not depend on what was
// profiled beside it. The row's lock is held across the replay, but
// only the replay holds a slot. What the row's machine cannot build is
// left out: no ladder without Checkpointer, no profiles without
// CycleSource nor of a structure the machine lacks, no signature
// without a commit probe. Each artifact kind counts one hit or one
// build per lookup that names it.
func (c *GoldenCache) derived(pool *planPool, tool, bench string, f Factory, want derivedWant) (derivedArtifacts, error) {
	e, err := c.row(pool, tool, bench, f)
	if err != nil {
		return derivedArtifacts{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var d derivedArtifacts
	var miss derivedWant
	if _, ok := e.ladders[want.k]; want.k > 0 && e.checkpoints && !ok {
		miss.k = want.k
	}
	for _, s := range want.structures {
		if _, ok := e.geom[s]; ok && e.profiled {
			if d.profiles == nil {
				d.profiles = make(prune.Profiles, len(want.structures))
			}
			d.profiles[s] = e.profiles[s]
			if d.profiles[s] == nil {
				miss.structures = append(miss.structures, s)
			}
		}
	}
	miss.sig = want.sig && e.probed && e.sig == nil
	if miss.k > 0 || len(miss.structures) > 0 || miss.sig {
		start := time.Now()
		pool.work(func() { err = e.replay(f, miss) })
		c.replays.Add(1)
		if err != nil {
			return derivedArtifacts{}, fmt.Errorf("core: %s/%s: replay for the %s: %w", tool, bench, miss, err)
		}
		c.logBuild(e, miss.String(), start)
	}
	if want.k > 0 && e.checkpoints {
		c.counts.ladder.note(miss.k > 0)
		d.rungs = e.ladders[want.k]
	}
	if d.profiles != nil {
		c.counts.profile.note(len(miss.structures) > 0)
		for _, s := range miss.structures {
			d.profiles[s] = e.profiles[s]
		}
	}
	if want.sig && e.probed {
		c.counts.signature.note(miss.sig)
		d.sig = e.sig
	}
	return d, nil
}

// replay runs the row's fault-free boot run once more and observes on it
// every artifact want names, memoizing each: it profiles the named
// structures, records the commit signature and captures want.k evenly
// spaced checkpoints by chaining RunTo — rung i is the machine at the
// start of cycle (i+1)/(k+1) of the golden cycle count; targets that
// coincide (a tiny golden run) are dropped. Dirty-page memory snapshots
// make every capture after the first a delta of the pages touched since
// the previous rung, and Checkpoint reads the arrays through their
// snapshots, which the profiler does not see. The replay must end like
// the golden run — completed, no kernel events, the golden output,
// cycle count and committed count — because every artifact is an
// observation of that trajectory: a replay that strays, or a rung that
// cannot be taken, is an error naming the cycle, never a shorter ladder.
// want must be buildable on f's machine; the caller holds e.mu.
func (e *goldenEntry) replay(f Factory, want derivedWant) error {
	sim := f()
	defer release(sim)
	profiled := make([]*bitarray.Array, len(want.structures))
	arrs := sim.Structures()
	for i, name := range want.structures {
		profiled[i] = arrs[name]
		profiled[i].StartProfile(sim.(CycleSource).CurrentCycle)
	}
	var sb *divergence.SignatureBuilder
	if want.sig {
		sb = divergence.NewSignatureBuilder()
		sim.(CommitProbed).SetCommitProbe(sb)
	}
	var rungs []LadderRung
	var last uint64
	for i := 0; i < want.k; i++ {
		target := e.golden.Cycles * uint64(i+1) / uint64(want.k+1) //nolint:gosec // i, k are small positives
		if target == 0 || target <= last {
			continue
		}
		ck := sim.(Checkpointer)
		reached, finished, err := ck.RunTo(target)
		if err != nil {
			return fmt.Errorf("running to cycle %d: %w", target, err)
		}
		if finished {
			return fmt.Errorf("program ended at cycle %d, before rung cycle %d", reached, target)
		}
		st, err := ck.Checkpoint()
		if err != nil {
			return fmt.Errorf("checkpoint at cycle %d: %w", reached, err)
		}
		rungs = append(rungs, LadderRung{State: st, Cycle: reached})
		last = reached
	}
	res := sim.Run(1 << 62)
	g := e.golden
	switch {
	case res.Status != RunCompleted:
		return fmt.Errorf("did not complete: %v at cycle %d (%s)", res.Status, res.Cycles, res.AssertMsg)
	case len(res.Events) != 0:
		return fmt.Errorf("recorded %d kernel events by cycle %d", len(res.Events), res.Cycles)
	case hashOutput(res.Output) != g.OutputHash:
		return fmt.Errorf("output %s differs from golden %s at cycle %d", hashOutput(res.Output), g.OutputHash, res.Cycles)
	case res.Cycles != g.Cycles || res.Committed != g.Committed:
		return fmt.Errorf("ended at cycle %d with %d committed, the golden run at cycle %d with %d",
			res.Cycles, res.Committed, g.Cycles, g.Committed)
	}
	if want.k > 0 {
		e.ladders[want.k] = rungs
		for _, r := range rungs {
			e.bytes.Add(int64(stateBytes(r.State)))
		}
	}
	for i, arr := range profiled {
		p := arr.StopProfile()
		e.profiles[want.structures[i]] = p
		e.bytes.Add(int64(p.SizeBytes()))
	}
	if sb != nil {
		sig := sb.Signature()
		e.sig = &sig
		e.bytes.Add(int64(8 * len(sig.Hashes)))
	}
	return nil
}

// FFLadder returns the memoized functional fast-forward rung ladder of
// the {tool, bench} row, creating it (empty) on first use. Unlike the
// detailed checkpoint ladder, creation costs nothing: rungs are
// captured lazily on the run path, each from the nearest lower rung.
// golden supplies the committed count the rung quantum is derived from.
func (c *GoldenCache) FFLadder(tool, bench string, golden GoldenInfo) *ffLadder {
	quantum := golden.Committed / ffRungs
	if quantum == 0 {
		return nil
	}
	e := c.entry(tool, bench)
	e.ffMu.Lock()
	defer e.ffMu.Unlock()
	if e.ff == nil {
		e.ff = newFFLadder(quantum, &c.ffHits, &c.ffBuilds, &e.bytes)
	}
	return e.ff
}
