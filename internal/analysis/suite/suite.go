// Package suite is the single registry of the scdclint analyzers and the
// packages they lint. cmd/scdclint, the -fixtures blindness guard and the
// scdclint:ignore audit all consume this list, so adding an analyzer here
// automatically enrolls it in linting, in the fixture self-test and in
// the audit — there is no second list to forget.
package suite

import (
	"path/filepath"
	"strings"

	"scdc/internal/analysis"
	"scdc/internal/analysis/alloccap"
	"scdc/internal/analysis/errsentinel"
	"scdc/internal/analysis/hotpath"
	"scdc/internal/analysis/obsguard"
	"scdc/internal/analysis/parallelpure"
	"scdc/internal/analysis/poolreturn"
	"scdc/internal/analysis/streamdeterminism"
)

// Analyzers is the full suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	streamdeterminism.Analyzer,
	errsentinel.Analyzer,
	alloccap.Analyzer,
	obsguard.Analyzer,
	poolreturn.Analyzer,
	parallelpure.Analyzer,
	hotpath.Analyzer,
}

// Packages is the set of import paths each analyzer runs over: the
// public package plus every internal package that produces or consumes
// compressed streams. cmd/* binaries and the analysis suite itself are
// out of scope; test files are never loaded.
var Packages = []string{
	"scdc",
	"scdc/internal/bitstream",
	"scdc/internal/core",
	"scdc/internal/entropy",
	"scdc/internal/hpez",
	"scdc/internal/huffman",
	"scdc/internal/interp",
	"scdc/internal/lattice",
	"scdc/internal/lossless",
	"scdc/internal/mgard",
	"scdc/internal/qoz",
	"scdc/internal/quantizer",
	"scdc/internal/rice",
	"scdc/internal/shard",
	"scdc/internal/sperr",
	"scdc/internal/sz3",
	"scdc/internal/transform",
	"scdc/internal/tthresh",
	"scdc/internal/zfp",
}

// Dir maps a lint package path to its directory under the module root.
func Dir(root, pkgPath string) string {
	if pkgPath == "scdc" {
		return root
	}
	return filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pkgPath, "scdc/")))
}
