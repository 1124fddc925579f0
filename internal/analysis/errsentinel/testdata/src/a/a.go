// Package a is the errsentinel fixture: a codec layer (it imports the
// verdict package) with decode-path error construction in every flagged
// spelling, a home-grown error root, and the approved wrapping forms.
package a

import (
	"errors"
	"fmt"

	"verdict"
)

// ErrTruncated is a twenty-second sentinel: nothing outside this package
// could classify it.
var ErrTruncated = errors.New("a: truncated stream") // want "package-level error root"

// errShort is the approved form of a pre-built error: it wraps a verdict.
var errShort = fmt.Errorf("%w: a: unexpected end of stream", verdict.ErrCorrupt)

func checkBody(data []byte) error {
	if len(data) == 0 {
		return errShort
	}
	return nil
}

// decodeHeader exercises every flagged spelling.
func decodeHeader(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("short header: %d bytes", len(data)) // want "wraps no sentinel"
	}
	if data[0] != 1 {
		return errors.New("bad version") // want "naked errors.New"
	}
	if err := checkBody(data); err != nil {
		return fmt.Errorf("%w: a: body: %v", verdict.ErrCorrupt, err) // want "formatted with %v"
	}
	return nil
}

// parseFooter is the approved form: context is added to the error the
// lower layer returned, whose verdict stays visible to errors.Is.
func parseFooter(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("%w: a: short footer", verdict.ErrCorrupt)
	}
	if err := checkBody(data); err != nil {
		return fmt.Errorf("footer: %w", err)
	}
	return nil
}

// Encode is not decoder-facing; its errors are out of scope.
func Encode(data []byte) error {
	if len(data) == 0 {
		return errors.New("nothing to encode")
	}
	return nil
}
