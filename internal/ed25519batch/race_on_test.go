//go:build race

package ed25519batch

// raceEnabled reports a -race build, where sync.Pool drops a share of
// Put items on purpose, so pooled paths allocate.
const raceEnabled = true
