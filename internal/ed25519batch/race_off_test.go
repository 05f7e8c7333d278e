//go:build !race

package ed25519batch

const raceEnabled = false
