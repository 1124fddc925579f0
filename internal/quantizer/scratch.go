package quantizer

import "sync"

// Pooled scratch buffers for the compressor hot paths. Every
// interpolation-based compressor needs one float64 working copy of the
// field plus one full-size quantization index array per Compress call,
// and a decompression decodes its index array into one from here too;
// recycling them makes repeated calls on same-shaped fields allocate O(1)
// instead of O(field).
//
// Buffers are returned with unspecified contents: callers must write every
// slot they read (the compression schedules visit every point exactly
// once, so this holds by construction).

var indexPool = sync.Pool{New: func() any { return new([]int32) }}
var floatPool = sync.Pool{New: func() any { return new([]float64) }}

// GetIndexBuf returns a pooled int32 buffer of length n with unspecified
// contents. Release it with PutIndexBuf when no longer referenced.
func GetIndexBuf(n int) []int32 {
	p := indexPool.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	return (*p)[:n]
}

// PutIndexBuf recycles a buffer obtained from GetIndexBuf. The caller must
// not retain any reference to it.
func PutIndexBuf(buf []int32) {
	if cap(buf) == 0 {
		return
	}
	// A fresh variable: the pool keeps its address, so it lives on the
	// heap, and only a buffer that is put pays for that.
	p := buf[:cap(buf)]
	indexPool.Put(&p)
}

// GetFloatBuf returns a pooled float64 buffer of length n with unspecified
// contents. Release it with PutFloatBuf when no longer referenced.
func GetFloatBuf(n int) []float64 {
	p := floatPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	return (*p)[:n]
}

// PutFloatBuf recycles a buffer obtained from GetFloatBuf. The caller must
// not retain any reference to it.
func PutFloatBuf(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	p := buf[:cap(buf)] // as in PutIndexBuf
	floatPool.Put(&p)
}
