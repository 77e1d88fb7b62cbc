//go:build !race

package framestore

// raceEnabled reports a -race build, whose sync.Pool drops a share of the
// entries put back at random.
const raceEnabled = false
