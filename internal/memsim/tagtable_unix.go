//go:build unix

package memsim

import (
	"runtime"
	"syscall"
	"unsafe"
)

// newTagTable returns c's table of n lines in anonymous memory mapped from
// the kernel, so a page of it takes resident memory only once a line in it
// is first written: a never-written page reads as zeros through the shared
// zero page, and a machine of P=1024 whose nodes each touch a few hundred
// blocks keeps most of its 64 MB of tag tables unbacked. The Go heap would
// allocate and zero every table eagerly. The mapping is released when c is
// collected. If the kernel refuses the mapping, the table is an ordinary
// heap slice.
func newTagTable(c *Cache, n int) []packedLine {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return make([]packedLine, n)
	}
	tagBytesMapped.Add(int64(len(b)))
	runtime.SetFinalizer(c, (*Cache).unmapTagTable)
	return unsafe.Slice((*packedLine)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// unmapTagTable is the finalizer of a cache whose table newTagTable mapped.
func (c *Cache) unmapTagTable() {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(c.lines))), len(c.lines)*8)
	if err := syscall.Munmap(b); err != nil {
		panic("memsim: unmapping a cache's tag table: " + err.Error())
	}
}
