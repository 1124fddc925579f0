package zfp

import (
	"math"

	"scdc/internal/bitstream"
)

// seqOrder orders the 64 block coefficients by total sequency i+j+k
// (ascending), so low-frequency coefficients — the large ones after the
// decorrelating transform — come first and the embedded coder finds the
// significant set early.
var seqOrder = buildSeqOrder()

func buildSeqOrder() [blockLen]int {
	var order [blockLen]int
	k := 0
	for total := 0; total <= 9; total++ {
		for x := 0; x < blockEdge; x++ {
			for y := 0; y < blockEdge; y++ {
				for z := 0; z < blockEdge; z++ {
					if x+y+z == total {
						order[k] = (x*blockEdge+y)*blockEdge + z
						k++
					}
				}
			}
		}
	}
	return order
}

// fwdLift is ZFP's forward decorrelating lifting transform on 4 samples.
func fwdLift(p []int64, s int) {
	x, y, z, w := p[0], p[s], p[2*s], p[3*s]
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1
	p[0], p[s], p[2*s], p[3*s] = x, y, z, w
}

// invLift inverts fwdLift exactly.
func invLift(p []int64, s int) {
	x, y, z, w := p[0], p[s], p[2*s], p[3*s]
	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w
	p[0], p[s], p[2*s], p[3*s] = x, y, z, w
}

// blockExp returns the largest base-2 exponent in the block, or the
// sentinel minimum for an all-zero block.
func blockExp(blk *[blockLen]float64) int {
	m := 0.0
	for _, v := range blk {
		a := math.Abs(v)
		if a > m {
			m = a
		}
	}
	if m == 0 || math.IsNaN(m) || math.IsInf(m, 0) {
		return math.MinInt32
	}
	return int(math.Floor(math.Log2(m))) + 1
}

// precision returns the number of bit planes to encode in fixed-accuracy
// mode (ZFP's precision function for 3D data): enough planes to resolve
// the tolerance plus 2*(d+1) guard bits for transform growth, and one
// extra bit absorbing the forward lift's truncation (the >>1 steps), which
// otherwise overshoots tight tolerances by a fraction of a percent.
func precision(emax, minexp int) int {
	p := emax - minexp + 2*(3+1) + 1
	if p < 0 {
		p = 0
	}
	if p > intPrec+2 {
		p = intPrec + 2
	}
	return p
}

// encodeBlock writes one 4^3 block: a zero flag, the biased exponent, and
// the group-tested bit planes of the negabinary transform coefficients.
func encodeBlock(w *bitstream.Writer, blk *[blockLen]float64, minexp int) {
	emax := blockExp(blk)
	maxprec := 0
	if emax != math.MinInt32 {
		maxprec = precision(emax, minexp)
	}
	if maxprec == 0 {
		w.WriteBit(0) // block quantizes to all-zero at this tolerance
		return
	}
	w.WriteBit(1)
	w.WriteBits(uint64(emax+ebBias), ebBits)

	// Block floating point: scale by 2^(intPrec-2-emax).
	scale := math.Ldexp(1, intPrec-2-emax)
	var q [blockLen]int64
	for i, v := range blk {
		q[i] = int64(v * scale)
	}
	// Decorrelate along z, y, x.
	for x := 0; x < blockEdge; x++ {
		for y := 0; y < blockEdge; y++ {
			fwdLift(q[(x*blockEdge+y)*blockEdge:], 1)
		}
	}
	for x := 0; x < blockEdge; x++ {
		for z := 0; z < blockEdge; z++ {
			fwdLift(q[x*blockEdge*blockEdge+z:], blockEdge)
		}
	}
	for y := 0; y < blockEdge; y++ {
		for z := 0; z < blockEdge; z++ {
			fwdLift(q[y*blockEdge+z:], blockEdge*blockEdge)
		}
	}

	// Negabinary, sequency order.
	var u [blockLen]uint64
	for i := 0; i < blockLen; i++ {
		u[i] = (uint64(q[seqOrder[i]]) + nbMask) ^ nbMask
	}

	// Embedded coding, MSB plane first, ZFP's group-testing scheme.
	kmin := 64 - maxprec
	if kmin < 0 {
		kmin = 0
	}
	n := 0
	for k := 63; k >= kmin; k-- {
		// Extract bit plane k (bit i of x = plane bit of coefficient i).
		var x uint64
		for i := 0; i < blockLen; i++ {
			x |= ((u[i] >> uint(k)) & 1) << uint(i)
		}
		// Verbatim bits for the already-significant prefix.
		w.WriteBits(bitsLow(x, n), uint(n))
		x >>= uint(n)
		// Unary run-length encoding of the remainder.
		for i := n; i < blockLen; {
			if x == 0 {
				w.WriteBit(0)
				break
			}
			w.WriteBit(1)
			for {
				b := uint(x & 1)
				x >>= 1
				i++
				w.WriteBit(b)
				if b == 1 {
					if i > n {
						n = i
					}
					break
				}
				if i == blockLen {
					break
				}
			}
			if i >= blockLen {
				if i > n {
					n = i
				}
				break
			}
		}
	}
}

// decodeBlock reverses encodeBlock.
func decodeBlock(r *bitstream.Reader, blk *[blockLen]float64, minexp int) error {
	flag, err := r.ReadBit()
	if err != nil {
		return err
	}
	if flag == 0 {
		for i := range blk {
			blk[i] = 0
		}
		return nil
	}
	e, err := r.ReadBits(ebBits)
	if err != nil {
		return err
	}
	emax := int(e) - ebBias
	maxprec := precision(emax, minexp)
	kmin := 64 - maxprec
	if kmin < 0 {
		kmin = 0
	}

	var u [blockLen]uint64
	n := 0
	for k := 63; k >= kmin; k-- {
		x, err := r.ReadBits(uint(n))
		if err != nil {
			return err
		}
		// x holds the prefix bits MSB-first as written; reverse into
		// per-coefficient positions.
		for i := 0; i < n; i++ {
			bit := (x >> uint(n-1-i)) & 1
			u[i] |= bit << uint(k)
		}
		for i := n; i < blockLen; {
			b, err := r.ReadBit()
			if err != nil {
				return err
			}
			if b == 0 {
				break
			}
			for {
				bit, err := r.ReadBit()
				if err != nil {
					return err
				}
				u[i] |= uint64(bit) << uint(k)
				i++
				if bit == 1 {
					if i > n {
						n = i
					}
					break
				}
				if i == blockLen {
					break
				}
			}
			if i >= blockLen {
				if i > n {
					n = i
				}
				break
			}
		}
	}

	// Invert negabinary and sequency order.
	var q [blockLen]int64
	for i := 0; i < blockLen; i++ {
		q[seqOrder[i]] = int64((u[i] ^ nbMask) - nbMask)
	}
	// Inverse transform along x, y, z.
	for y := 0; y < blockEdge; y++ {
		for z := 0; z < blockEdge; z++ {
			invLift(q[y*blockEdge+z:], blockEdge*blockEdge)
		}
	}
	for x := 0; x < blockEdge; x++ {
		for z := 0; z < blockEdge; z++ {
			invLift(q[x*blockEdge*blockEdge+z:], blockEdge)
		}
	}
	for x := 0; x < blockEdge; x++ {
		for y := 0; y < blockEdge; y++ {
			invLift(q[(x*blockEdge+y)*blockEdge:], 1)
		}
	}
	scale := math.Ldexp(1, -(intPrec - 2 - emax))
	for i := 0; i < blockLen; i++ {
		blk[i] = float64(q[i]) * scale
	}
	return nil
}

// bitsLow returns the low n bits of x arranged MSB-first for WriteBits
// (coefficient 0's bit ends up written first).
func bitsLow(x uint64, n int) uint64 {
	var out uint64
	for i := 0; i < n; i++ {
		out = out<<1 | ((x >> uint(i)) & 1)
	}
	return out
}
