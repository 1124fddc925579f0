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
//
// A float buffer may also leave the pool for good: a decompression takes
// its output field from it (GetFloatField), so a decode that follows a
// compress of a same-size field reuses the compress's working copy
// instead of faulting in fresh pages.

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

// GetFloatCopy returns a pooled float64 buffer holding a copy of src.
// Release it with PutFloatBuf when no longer referenced. When no pooled
// buffer is large enough the copy is the allocation: the runtime does not
// zero what append is about to overwrite, as make would.
func GetFloatCopy(src []float64) []float64 {
	p := floatPool.Get().(*[]float64)
	if cap(*p) < len(src) {
		*p = nil // dropped, as GetIndexBuf drops a short buffer
	}
	*p = append((*p)[:0], src...)
	return *p
}

// GetFloatField returns a float64 buffer of length and capacity n, with
// unspecified contents, that the caller may keep: it is a decoded field's
// storage. It is the buffer the pool offers when that buffer's capacity
// lies in [n, n+n/8] — reported by pooled — so a field never pins much
// more memory than it holds, and the clip keeps a caller from reslicing
// into the rest. A buffer that does not fit goes back untouched and the
// field is allocated. A caller that fails before handing the field out
// puts it back with PutFloatBuf.
func GetFloatField(n int) (buf []float64, pooled bool) {
	p := floatPool.Get().(*[]float64)
	if c := cap(*p); c < n || c-n > n/8 {
		if c > 0 {
			floatPool.Put(p) // the misfit goes back untouched
		}
		return make([]float64, n), false
	}
	return (*p)[:n:n], true
}

// PutFloatBuf recycles a float buffer from GetFloatCopy or GetFloatField.
// The caller must not retain any reference to it.
func PutFloatBuf(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	p := buf[:cap(buf)] // as in PutIndexBuf
	floatPool.Put(&p)
}
