//go:build linux && !arm

// Package writeback starts the writeback of a file range a store has written,
// for the area's and the log's file stores: a hint, which makes nothing
// durable — that is fsync's — but lets the device work while the writer goes
// on.
package writeback

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start the writeback of the
// range's dirty pages that are not under writeback already, and wait for none.
const syncFileRangeWrite = 2

// Start asks the kernel to start writing f's dirty pages in [off, off+n)
// back to the device, with sync_file_range(2).
func Start(f *os.File, off, n int64) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) { serr = syscall.SyncFileRange(int(fd), off, n, syncFileRangeWrite) }); err != nil {
		return err
	}
	return serr
}
