package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
// Each artifact is keyed by exactly what determines it — the row, plus
// the ladder's K, the profiled structure set, the fast-forward quantum
// and decode mode — and the simulators are
// deterministic, so a hit returns what a rebuild would have produced:
// sharing across shards, campaigns and configs leaves every output
// byte-identical. Callers hold what they were handed by reference, so
// evicting a row never invalidates a run in flight; it only means the
// next caller rebuilds. Safe for concurrent use.
type GoldenCache struct {
	// Logf, when non-nil, receives one line per cold build naming the
	// row, the artifact and the wall time. Set it before the first use.
	Logf func(format string, args ...any)

	mu        sync.Mutex
	rows      map[goldenKey]*goldenEntry
	clock     uint64 // recency stamps
	evictions uint64

	// counts splits each artifact kind's lookups into hits and builds.
	counts struct{ golden, ladder, profile, signature hitCount }
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
	// geometry and the live entries of every structure, and whether it
	// can checkpoint. The machine itself (RAM image and every array) is
	// let go. Written once under once, read-only afterwards.
	once        sync.Once
	golden      GoldenInfo
	geom        map[string]StructureGeom
	live        map[string][]int
	checkpoints bool
	err         error

	// Each derived artifact has its own lock: building one simulates
	// most of a golden run, and lookups of the others must not wait
	// behind it.
	ladderMu sync.Mutex
	ladders  map[int][]LadderRung // by K

	profMu   sync.Mutex
	profiles map[string]prune.Profiles // by structure set

	sigMu sync.Mutex
	sig   *divergence.Signature

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
	_, e.checkpoints = sim.(Checkpointer)
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
// (Geometry, live-entry, ladder and profile lookups route through the
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
// one machine. A simulator that cannot checkpoint has an empty ladder,
// built and counted never: its runs boot from scratch.
func (c *GoldenCache) Ladder(tool, bench string, f Factory, k int) ([]LadderRung, error) {
	return c.ladder(nil, tool, bench, f, k)
}

func (c *GoldenCache) ladder(pool *planPool, tool, bench string, f Factory, k int) ([]LadderRung, error) {
	e, err := c.row(pool, tool, bench, f)
	if err != nil || !e.checkpoints {
		return nil, err
	}
	e.ladderMu.Lock()
	defer e.ladderMu.Unlock()
	rungs, ok := e.ladders[k]
	c.counts.ladder.note(!ok)
	if ok {
		return rungs, nil
	}
	start := time.Now()
	pool.work(func() { rungs = makeLadder(f, e.golden, k) })
	if e.ladders == nil {
		e.ladders = make(map[int][]LadderRung)
	}
	e.ladders[k] = rungs
	for _, r := range rungs {
		e.bytes.Add(int64(stateBytes(r.State)))
	}
	c.logBuild(e, fmt.Sprintf("%d-rung checkpoint ladder", k), start)
	return rungs, nil
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
// for one profiled-structure set, running the profiled replay only on
// the first call. A shard worker re-planning the same campaign hits the
// memo instead of re-simulating a golden replay per shard. The result
// holds one profile set: every checkpoint rung is the boot run in
// flight, so the boot profile is the profile of every trajectory a run
// can follow, and rungs is ignored — it stays in the signature only
// because the benchmark module in bench/ compiles against it. A nil
// result (no error) means the simulator cannot be profiled and pruning
// is off for the row.
func (c *GoldenCache) Profiles(tool, bench string, f Factory, rungs []LadderRung, structures []string) ([]prune.Profiles, error) {
	p, err := c.profiles(nil, tool, bench, f, structures)
	if p == nil {
		return nil, err
	}
	return []prune.Profiles{p}, nil
}

func (c *GoldenCache) profiles(pool *planPool, tool, bench string, f Factory, structures []string) (prune.Profiles, error) {
	e, err := c.row(pool, tool, bench, f)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%q", structures)
	e.profMu.Lock()
	defer e.profMu.Unlock()
	p, ok := e.profiles[key]
	c.counts.profile.note(!ok)
	if ok {
		return p, nil
	}
	start := time.Now()
	pool.work(func() { p, err = profileReplay(f, structures, e.golden) })
	if err != nil {
		return nil, err
	}
	if e.profiles == nil {
		e.profiles = make(map[string]prune.Profiles)
	}
	e.profiles[key] = p
	for _, prof := range p {
		e.bytes.Add(int64(prof.SizeBytes()))
	}
	c.logBuild(e, fmt.Sprintf("liveness profiles of %q", structures), start)
	return p, nil
}

// CommitSignature returns the memoized golden commit-stream signature
// of the {tool, bench} row — the per-block hash sequence of fault-free
// committed-instruction PCs that divergence probes compare injected
// runs against — building it on first use with one probed golden
// replay. A nil signature (no error) means the simulator exposes no
// commit probe; divergence records for the row then carry the
// corruption footprint but no divergence verdict.
func (c *GoldenCache) CommitSignature(tool, bench string, f Factory) (*divergence.Signature, error) {
	return c.commitSignature(nil, tool, bench, f)
}

func (c *GoldenCache) commitSignature(pool *planPool, tool, bench string, f Factory) (*divergence.Signature, error) {
	e := c.entry(tool, bench)
	e.sigMu.Lock()
	defer e.sigMu.Unlock()
	if e.sig != nil {
		c.counts.signature.note(false)
		return e.sig, nil
	}
	start := time.Now()
	var sig *divergence.Signature
	var err error
	pool.work(func() { sig, err = signatureReplay(f) })
	if err != nil {
		return nil, fmt.Errorf("core: signature replay for %s/%s %w", tool, bench, err)
	}
	if sig == nil {
		return nil, nil
	}
	e.sig = sig
	e.bytes.Add(int64(8 * len(sig.Hashes)))
	c.counts.signature.note(true)
	c.logBuild(e, "commit signature", start)
	return e.sig, nil
}

// signatureReplay runs one fault-free replay with a commit probe and
// returns its signature; nil (no error) when the simulator exposes no
// commit probe.
func signatureReplay(f Factory) (*divergence.Signature, error) {
	sim := f()
	defer release(sim)
	cp, ok := sim.(CommitProbed)
	if !ok {
		return nil, nil
	}
	b := divergence.NewSignatureBuilder()
	cp.SetCommitProbe(b)
	res := sim.Run(1 << 62)
	if res.Status != RunCompleted {
		return nil, fmt.Errorf("did not complete: %v (%s)", res.Status, res.AssertMsg)
	}
	sig := b.Signature()
	return &sig, nil
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
