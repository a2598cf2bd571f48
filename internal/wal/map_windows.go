package wal

import (
	"os"
	"syscall"
	"unsafe"
)

// mapShared maps the first size bytes of f read-write: a store into
// the view is a store into the file's cache. The mapping object's
// handle is closed at once; the view keeps the object alive.
func mapShared(f *os.File, size int64) ([]byte, error) {
	h, err := syscall.CreateFileMapping(syscall.Handle(f.Fd()), nil, syscall.PAGE_READWRITE,
		uint32(size>>32), uint32(size), nil)
	if err != nil {
		return nil, os.NewSyscallError("CreateFileMapping", err)
	}
	defer syscall.CloseHandle(h)
	addr, err := syscall.MapViewOfFile(h, syscall.FILE_MAP_WRITE, 0, 0, uintptr(size))
	if err != nil {
		return nil, os.NewSyscallError("MapViewOfFile", err)
	}
	// The view lies outside the Go heap; read the address as a pointer
	// without a uintptr conversion the checker cannot follow.
	return unsafe.Slice((*byte)(*(*unsafe.Pointer)(unsafe.Pointer(&addr))), size), nil
}

// unmap releases a view made by mapShared.
func unmap(m []byte) error {
	return os.NewSyscallError("UnmapViewOfFile", syscall.UnmapViewOfFile(uintptr(unsafe.Pointer(&m[0]))))
}

// flushView writes the view's dirty pages to the file; the fsync that
// follows (FlushFileBuffers) makes them durable.
func flushView(m []byte) error {
	return os.NewSyscallError("FlushViewOfFile", syscall.FlushViewOfFile(uintptr(unsafe.Pointer(&m[0])), uintptr(len(m))))
}
