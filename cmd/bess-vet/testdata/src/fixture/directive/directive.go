// Package directive holds deliberately broken //bess: lines. A typo'd or
// malformed directive silently disables the checking it meant to enable,
// so each one must be a finding in its own right.
package directive

// A misspelled verb is unknown: there is no verb it could be.
//
//bess:prepublsh // want directive

// A verb that has been retired is unknown like any other: the hierarchy is
// the Init calls, a caller-holds contract is a call to AssertHeld, an
// allocation budget is an AllocsPerRun test, golife takes no opt-in, and a
// value not yet shared takes its lock like any other. A space after the
// slashes still makes a directive, and so does an argument.
//
//bess:lockorder Reg.mu < Reg.copyMu // want directive
// bess:holds mu // want directive
// bess:hotpath // want directive
// bess:hotpath ignore=once per segment // want directive
//bess:golife // want directive
