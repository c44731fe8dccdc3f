// Package directive holds deliberately broken //bess: lines. A typo'd or
// malformed directive silently disables the checking it meant to enable,
// so each one must be a finding in its own right.
package directive

import "fixture/internal/lockcheck"

// The verb is misspelled: the contract below would never be enforced.
//
//bess:hold mu // want directive

// A verb that has been retired is unknown like any other: the hierarchy is
// the Init calls now, and golife takes no opt-in.
//
//bess:lockorder Reg.mu < Reg.copyMu // want directive
//bess:golife // want directive

// An ignore waiver without a reason is worthless in review.
//
//bess:hotpath ignore= // want directive

// prepublish takes no argument.
//
//bess:prepublish soon // want directive

// Unknown verb outright.
//
//bess:hotpaths // want directive

// Reg's two locks share a rank, and a third rank orders nothing.
type Reg struct{ mu, copyMu lockcheck.Mutex }

const (
	rankReg    lockcheck.Rank = 70
	rankUnused lockcheck.Rank = 80 // want directive
)

func newReg(name string) *Reg {
	r := &Reg{}
	r.mu.Init("Reg.mu", rankReg)
	r.copyMu.Init("Reg.copyMu", rankReg) // want directive
	r.mu.Init(name, rankReg)             // want directive
	return r
}
