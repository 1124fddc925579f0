//go:build race

package qoz

// Under the race detector sync.Pool drops a share of what is put back, so
// pooled scratch is reallocated at random and allocation counts rise.
func init() { raceEnabled = true }
