//go:build !linux || arm

// Package writeback starts the writeback of a file range a store has written,
// for the area's and the log's file stores: a hint, which makes nothing
// durable — that is fsync's — but lets the device work while the writer goes
// on.
package writeback

import "os"

// Start does nothing where sync_file_range(2) is not to be had: the next
// fsync writes everything back.
func Start(*os.File, int64, int64) error { return nil }
