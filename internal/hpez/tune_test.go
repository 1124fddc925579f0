package hpez

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"scdc/internal/datagen"
	"scdc/internal/grid"
)

// planHash is the CRC32C of everything of a plan that Compress writes to
// the stream: levels, per-level freeze mask, weights and bound, the block
// spline bits and the block weights.
func planHash(pl plan) uint32 {
	b := binary.AppendUvarint(nil, uint64(pl.levels))
	for l := 0; l < pl.levels; l++ {
		b = append(b, pl.frozen[l])
		b = append(b, pl.weights[l][:]...)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(pl.ebs[l]))
	}
	b = binary.AppendUvarint(b, uint64(len(pl.blockCubic)))
	b = append(b, pl.blockCubic...)
	for _, bw := range pl.blockWeights {
		b = append(b, bw[:]...)
	}
	return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli))
}

// TestBuildPlanPinned pins the tuner's decisions. HPEZ has no reference
// tuner to compare against (QoZ has buildPlanRef), so the plans of every
// datagen dataset at a reduced geometry and of a 1D, a 2D and a 4D field
// are pinned by hash at two bounds, so a change of any tuned decision
// shows here, by field and bound, before it shows as a golden-stream diff.
func TestBuildPlanPinned(t *testing.T) {
	fields := map[string]*grid.Field{
		"1d": synth(3000), "2d": synth(130, 97), "4d": synth(12, 9, 20, 17),
	}
	for _, spec := range datagen.Specs() {
		dims := make([]int, len(spec.Dims))
		for d, n := range spec.Dims {
			dims[d] = n/2 + 1
		}
		fields[spec.Name] = datagen.MustGenerate(spec.Dataset, 1, dims, 1)
	}
	pins := map[string][2]uint32{ // rel 1e-3, rel 1e-5
		"1d":        {0x2ff58082, 0xc5486284},
		"2d":        {0x68adac0f, 0x44bd27fe},
		"4d":        {0x2b358704, 0x7b1d4f63},
		"CESM-3D":   {0x1e3d34cf, 0x81e86b6e},
		"Hurricane": {0xf6c541f8, 0x2aac43b8},
		"Miranda":   {0xc9ea58e0, 0x8b3dabd0},
		"RTM":       {0xbf629f09, 0xa28edeed},
		"S3D":       {0x22dc06e9, 0xe0a59839},
		"SCALE":     {0xbff419f8, 0x3797cb16},
		"SegSalt":   {0xc832999e, 0xe49c761c},
	}
	if len(pins) != len(fields) {
		t.Errorf("%d pinned fields, %d generated", len(pins), len(fields))
	}
	for name, f := range fields {
		for i, rel := range []float64{1e-3, 1e-5} {
			if got := planHash(buildPlan(f, DefaultOptions(rel*f.Range()))); got != pins[name][i] {
				t.Errorf("%s rel=%g: plan hash %#08x, pinned %#08x", name, rel, got, pins[name][i])
			}
		}
	}
}
