package interp

import (
	"repro/internal/asm"
	"repro/internal/predecode"
)

// RegisteredImages counts the images the predecode registry holds a
// table for.
func RegisteredImages() int { return predecode.Registered() }

// ForgetDecodeCache drops img's predecode table from the registry. The
// fuzz target links a fresh image per input; the registry never evicts,
// so without this a fuzzing process would keep every input's table.
func ForgetDecodeCache(img *asm.Image) { predecode.Forget(img) }
