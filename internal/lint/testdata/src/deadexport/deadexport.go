// Package deadexport plants an exported name nothing reads beside one its own
// package reads through an instantiation: the dead-export check must report
// Unread alone.
package deadexport

// Unread is the planted dead export.
func Unread() int { return 1 }

// Read is read below, in its own package, which counts.
func Read[T any](v T) T { return v }

var _ = Read(0)
