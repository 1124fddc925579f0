// Package quantizer is a stand-in for the real pooled scratch API; the
// analyzer matches its Get*/Put* functions by package name and prefix.
package quantizer

// GetIndexBuf returns a pooled index buffer of length n.
func GetIndexBuf(n int) []int32 { return make([]int32, n) }

// PutIndexBuf returns the buffer to the pool.
func PutIndexBuf(b []int32) {}

// GetFloatField returns a buffer of length n the caller may keep, and
// whether it came from the pool.
func GetFloatField(n int) ([]float64, bool) { return make([]float64, n), false }

// GetFloatCopy returns a pooled buffer holding a copy of src.
func GetFloatCopy(src []float64) []float64 { return append([]float64(nil), src...) }

// PutFloatBuf returns a buffer from GetFloatCopy or GetFloatField to the
// pool.
func PutFloatBuf(b []float64) {}
