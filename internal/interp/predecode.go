package interp

import "sync/atomic"

// The interpreter dispatches from the per-image predecode table shared
// with the detailed core's fetch stage (internal/predecode). Its
// soundness here is text immutability alone: the RAM bytes a Fetch would
// return at a text PC are always exactly the image's text.

// decodeHits and decodeMisses accumulate, process-wide, the dynamic
// dispatches served from a predecode table vs. pushed through the
// byte-level decoder. Machines count locally and flush per run slice,
// so the hot loop never touches shared cache lines. The detailed core's
// fetches are not counted here.
var decodeHits, decodeMisses atomic.Uint64

// DecodeCacheStats returns the process-wide decode-cache hit/miss
// totals. Telemetry polls it as a lazily-read source (the same pattern
// as the golden-cache counters), keeping the interpreter hot path free
// of any per-event instrumentation.
func DecodeCacheStats() (hits, misses uint64) {
	return decodeHits.Load(), decodeMisses.Load()
}
