package sperr

import (
	"fmt"
	"math/bits"

	"scdc/internal/bitstream"
	"scdc/internal/verdict"
)

// SPECK-style set-partitioning coder over the quantized wavelet
// coefficients — the embedded entropy stage of real SPERR. Magnitudes are
// coded bit plane by bit plane: a list of insignificant cubes (LIS) is
// group-tested against the current threshold and split into octants on
// significance, isolating the sparse significant coefficients in few bits;
// already-significant coefficients are refined one bit per plane. The
// Compress path codes each stream with both this coder and Huffman/DEFLATE
// and keeps the smaller (1-byte flag).

// box is an axis-aligned region of the padded coefficient volume.
type box struct {
	x, y, z    int
	sx, sy, sz int
	max        uint32 // max magnitude in the region (encoder side only)
}

func (b box) single() bool { return b.sx == 1 && b.sy == 1 && b.sz == 1 }

// speckEncode codes the coefficients of q (length px*py*pz) losslessly.
func speckEncode(q []int32, px, py, pz int) []byte {
	mag := make([]uint32, len(q))
	var maxMag uint32
	for i, v := range q {
		m := uint32(v)
		if v < 0 {
			m = uint32(-int64(v))
		}
		mag[i] = m
		if m > maxMag {
			maxMag = m
		}
	}
	w := bitstream.NewWriter(len(q) / 4)
	if maxMag == 0 {
		w.WriteBits(0, 6) // zero planes: empty volume
		return w.Bytes()
	}
	planes := bits.Len32(maxMag) // 1..32
	w.WriteBits(uint64(planes), 6)

	boxMax := func(b box) uint32 {
		var m uint32
		for x := b.x; x < b.x+b.sx; x++ {
			for y := b.y; y < b.y+b.sy; y++ {
				row := (x*py+y)*pz + b.z
				for z := 0; z < b.sz; z++ {
					if mag[row+z] > m {
						m = mag[row+z]
					}
				}
			}
		}
		return m
	}

	root := box{0, 0, 0, px, py, pz, maxMag}
	lis := []box{root}
	var lsp []int   // flat indexes, in order of becoming significant
	var lspAt []int // plane at which each became significant

	for k := planes - 1; k >= 0; k-- {
		thr := uint32(1) << uint(k)
		// Sorting pass. New boxes append and are processed in this pass.
		next := lis[:0:0]
		for i := 0; i < len(lis); i++ {
			b := lis[i]
			if b.max < thr {
				w.WriteBit(0)
				next = append(next, b)
				continue
			}
			w.WriteBit(1)
			if b.single() {
				idx := (b.x*py+b.y)*pz + b.z
				if q[idx] < 0 {
					w.WriteBit(1)
				} else {
					w.WriteBit(0)
				}
				lsp = append(lsp, idx)
				lspAt = append(lspAt, k)
				continue
			}
			for _, c := range splitBox(b) {
				c.max = boxMax(c)
				lis = append(lis, c)
			}
		}
		lis = next

		// Refinement pass: coefficients significant before this plane.
		for i, idx := range lsp {
			if lspAt[i] <= k {
				continue
			}
			w.WriteBit(uint((mag[idx] >> uint(k)) & 1))
		}
	}
	return w.Bytes()
}

// speckDecode reverses speckEncode.
func speckDecode(data []byte, px, py, pz int) ([]int32, error) {
	n := px * py * pz
	// px, py, pz come from the block partition of dims already validated
	// by the container parser, not from the SPECK payload itself.
	q := make([]int32, n) //scdclint:ignore alloccap -- block dims validated by the caller
	r := bitstream.NewReader(data)
	planes64, err := r.ReadBits(6)
	if err != nil {
		return nil, fmt.Errorf("%w: sperr: speck header", verdict.ErrCorrupt)
	}
	planes := int(planes64)
	if planes == 0 {
		return q, nil
	}
	if planes > 32 {
		return nil, fmt.Errorf("%w: sperr: speck planes %d", verdict.ErrCorrupt, planes)
	}

	mag := make([]uint32, n) //scdclint:ignore alloccap -- block dims validated by the caller
	neg := make([]bool, n)   //scdclint:ignore alloccap -- block dims validated by the caller
	lis := []box{{0, 0, 0, px, py, pz, 0}}
	var lsp []int
	var lspAt []int

	for k := planes - 1; k >= 0; k-- {
		next := lis[:0:0]
		for i := 0; i < len(lis); i++ {
			b := lis[i]
			bit, err := r.ReadBit()
			if err != nil {
				return nil, fmt.Errorf("%w: sperr: speck sorting pass", verdict.ErrCorrupt)
			}
			if bit == 0 {
				next = append(next, b)
				continue
			}
			if b.single() {
				idx := (b.x*py+b.y)*pz + b.z
				sign, err := r.ReadBit()
				if err != nil {
					return nil, fmt.Errorf("%w: sperr: speck sign", verdict.ErrCorrupt)
				}
				neg[idx] = sign == 1
				mag[idx] = 1 << uint(k)
				lsp = append(lsp, idx)
				lspAt = append(lspAt, k)
				continue
			}
			lis = append(lis, splitBox(b)...)
		}
		lis = next

		for i, idx := range lsp {
			if lspAt[i] <= k {
				continue
			}
			bit, err := r.ReadBit()
			if err != nil {
				return nil, fmt.Errorf("%w: sperr: speck refinement", verdict.ErrCorrupt)
			}
			mag[idx] |= uint32(bit) << uint(k)
		}
	}
	for i := range q {
		v := int32(mag[i])
		if neg[i] {
			v = -v
		}
		q[i] = v
	}
	return q, nil
}

// splitBox partitions a box into up to 8 non-empty octants, in a
// deterministic order shared by encoder and decoder.
func splitBox(b box) []box {
	hx, hy, hz := b.sx/2, b.sy/2, b.sz/2
	// Degenerate axes (extent 1) split into a single part.
	xs := [][2]int{{b.x, b.sx}}
	if hx > 0 && b.sx > 1 {
		xs = [][2]int{{b.x, hx}, {b.x + hx, b.sx - hx}}
	}
	ys := [][2]int{{b.y, b.sy}}
	if hy > 0 && b.sy > 1 {
		ys = [][2]int{{b.y, hy}, {b.y + hy, b.sy - hy}}
	}
	zs := [][2]int{{b.z, b.sz}}
	if hz > 0 && b.sz > 1 {
		zs = [][2]int{{b.z, hz}, {b.z + hz, b.sz - hz}}
	}
	out := make([]box, 0, 8)
	for _, xr := range xs {
		for _, yr := range ys {
			for _, zr := range zs {
				out = append(out, box{xr[0], yr[0], zr[0], xr[1], yr[1], zr[1], 0})
			}
		}
	}
	return out
}
