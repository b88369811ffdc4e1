package core

// DefaultEngine exposes the engine contexts without one run on, so the
// external tests can check that it stays untouched.
var DefaultEngine = defaultEngine
