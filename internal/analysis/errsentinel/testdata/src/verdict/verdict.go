// Package verdict stands in for scdc/internal/verdict: the one package
// where error roots are legal.
package verdict

import "errors"

// ErrCorrupt mirrors the real verdict.
var ErrCorrupt = errors.New("scdc: corrupt stream")
