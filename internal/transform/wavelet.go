package transform

// CDF 9/7 biorthogonal wavelet in lifting form — the transform used by
// SPERR (and JPEG2000's lossy path). Coefficients from Daubechies &
// Sweldens (1998).
const (
	cdfAlpha = -1.586134342059924
	cdfBeta  = -0.052980118572961
	cdfGamma = 0.882911075530934
	cdfDelta = 0.443506852043971
	cdfKappa = 1.230174104914001
)

// FWT97 performs one level of the forward CDF 9/7 transform in place on x
// (even length >= 2): after the call, x[0:n/2] holds the low-pass
// (approximation) band and x[n/2:] the high-pass (detail) band.
func FWT97(x []float64) {
	n := len(x)
	if n < 2 || n%2 != 0 {
		return
	}
	// Predict/update lifting steps with symmetric boundary extension.
	lift := func(coef float64, odd bool) {
		if odd {
			for i := 1; i < n-1; i += 2 {
				x[i] += coef * (x[i-1] + x[i+1])
			}
			x[n-1] += 2 * coef * x[n-2]
		} else {
			x[0] += 2 * coef * x[1]
			for i := 2; i < n; i += 2 {
				x[i] += coef * (x[i-1] + x[i+1])
			}
		}
	}
	lift(cdfAlpha, true)
	lift(cdfBeta, false)
	lift(cdfGamma, true)
	lift(cdfDelta, false)

	// Scale and de-interleave.
	tmp := make([]float64, n)
	half := n / 2
	for i := 0; i < half; i++ {
		tmp[i] = x[2*i] / cdfKappa
		tmp[half+i] = x[2*i+1] * cdfKappa
	}
	copy(x, tmp)
}

// IWT97 inverts FWT97.
func IWT97(x []float64) {
	n := len(x)
	if n < 2 || n%2 != 0 {
		return
	}
	half := n / 2
	tmp := make([]float64, n)
	for i := 0; i < half; i++ {
		tmp[2*i] = x[i] * cdfKappa
		tmp[2*i+1] = x[half+i] / cdfKappa
	}
	copy(x, tmp)

	lift := func(coef float64, odd bool) {
		if odd {
			for i := 1; i < n-1; i += 2 {
				x[i] -= coef * (x[i-1] + x[i+1])
			}
			x[n-1] -= 2 * coef * x[n-2]
		} else {
			x[0] -= 2 * coef * x[1]
			for i := 2; i < n; i += 2 {
				x[i] -= coef * (x[i-1] + x[i+1])
			}
		}
	}
	lift(cdfDelta, false)
	lift(cdfGamma, true)
	lift(cdfBeta, false)
	lift(cdfAlpha, true)
}
