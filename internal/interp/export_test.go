package interp

import "repro/internal/asm"

// RegisteredImages counts the images the predecode registry holds a
// table for.
func RegisteredImages() int {
	n := 0
	caches.Range(func(any, any) bool {
		n++
		return true
	})
	return n
}

// ForgetDecodeCache drops img's predecode table from the registry. The
// fuzz target links a fresh image per input; the registry never evicts,
// so without this a fuzzing process would keep every input's table.
func ForgetDecodeCache(img *asm.Image) { caches.Delete(img) }
