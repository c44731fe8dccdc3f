// Package directive holds deliberately broken //bess: lines. A typo'd or
// malformed directive silently disables the checking it meant to enable,
// so each one must be a finding in its own right.
package directive

// The verb is misspelled: the function below would be checked as shared.
//
//bess:prepublsh // want directive

// A verb that has been retired is unknown like any other: the hierarchy is
// the Init calls, a caller-holds contract is a call to AssertHeld, an
// allocation budget is an AllocsPerRun test, and golife takes no opt-in. A
// space after the slashes still makes a directive.
//
//bess:lockorder Reg.mu < Reg.copyMu // want directive
// bess:holds mu // want directive
// bess:hotpath // want directive
// bess:hotpath ignore=once per segment // want directive
//bess:golife // want directive

// prepublish takes no argument.
//
//bess:prepublish soon // want directive
