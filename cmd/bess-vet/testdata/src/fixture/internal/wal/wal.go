// Package wal is a fixture stand-in for bess/internal/wal: a Logged is the
// proof a page write is made on.
package wal

// Logged proves a page change is in the log.
type Logged struct{ Page int64 }
