//go:build !unix

package memsim

// newTagTable returns c's table of n lines. Only unix systems have
// syscall.Mmap, so elsewhere the table lives on the Go heap.
func newTagTable(_ *Cache, n int) []packedLine {
	return make([]packedLine, n)
}
