package interp

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
