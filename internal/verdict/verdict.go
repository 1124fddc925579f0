// Package verdict declares the three errors a caller of package scdc can
// receive, and nothing else. It is a leaf (it imports only errors) so
// that every layer of the codec stack — bitstream and entropy coders,
// lossless back-end, engines, comparators, the container — wraps the
// same three values, naming itself in the message text:
//
//	fmt.Errorf("%w: sz3: bad dir order", verdict.ErrCorrupt)
//
// Package scdc re-exports them, so errors.Is(err, scdc.ErrCorrupt) holds
// for a failure raised at any depth. A layer that receives an error from
// below returns it as it is or adds context to it; it never wraps a
// second verdict around it. No other package of the stack declares an
// error root (scdclint's errsentinel analyzer enforces that).
package verdict

import "errors"

var (
	// ErrCorrupt: the stream is structurally wrong — truncated, hostile,
	// or not something this package wrote. Every decode failure other
	// than a footer mismatch is this one.
	ErrCorrupt = errors.New("scdc: corrupt stream")
	// ErrIntegrity: the container is well formed but its CRC32C footer does
	// not match its bytes — damaged in storage or transit; re-fetch it.
	ErrIntegrity = errors.New("scdc: integrity check failed")
	// ErrBadOptions: the options or the input of a compress call were
	// rejected. Every compress failure is this one.
	ErrBadOptions = errors.New("scdc: invalid options")
)
