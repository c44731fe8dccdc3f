// Package directive holds deliberately broken //bess: lines. A typo'd or
// malformed directive silently disables the checking it meant to enable,
// so each one must be a finding in its own right.
package directive

// The verb is misspelled: the hierarchy below would never be enforced.
//
//bess:lockorde Reg.mu < Reg.copyMu // want directive

// golife's only argument form is ignore=<reason>.
//
//bess:golife ignore // want directive

// An ignore waiver without a reason is worthless in review.
//
//bess:hotpath ignore= // want directive

// prepublish takes no argument.
//
//bess:prepublish soon // want directive

// Unknown verb outright.
//
//bess:hotpaths // want directive

// Reg exists so the (never-registered) lock classes above name something.
type Reg struct{ mu, copyMu int }
