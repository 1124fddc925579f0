// Package a is the poolreturn fixture: sync.Pool usage in every
// spelling the analyzer understands — direct, wrapper, cross-package —
// with leaking and clean exit paths.
package a

import (
	"errors"
	"sync"

	"quantizer"
)

var errFail = errors.New("a: fail")

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// LeakOnError skips the Put on the error path.
func LeakOnError(fail bool) ([]byte, error) {
	p := bufPool.Get().(*[]byte)
	if fail {
		return nil, errFail // want "skips the Put"
	}
	out := append([]byte(nil), *p...)
	bufPool.Put(p)
	return out, nil
}

// NoPut never returns the object at all.
func NoPut(dst []byte) {
	p := bufPool.Get().(*[]byte) // want "has no matching Put"
	copy(dst, *p)
}

// DeferredPut is the approved pattern.
func DeferredPut(fail bool) error {
	p := bufPool.Get().(*[]byte)
	defer bufPool.Put(p)
	if fail {
		return errFail
	}
	return nil
}

// Handoff transfers ownership to the caller, which owns the Put.
func Handoff() *[]byte {
	return bufPool.Get().(*[]byte)
}

// getBuf and putBuf are package wrappers around the pool.
func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(p *[]byte) { bufPool.Put(p) }

// WrapperLeak leaks through the wrapper spelling.
func WrapperLeak(fail bool) error {
	p := getBuf()
	if fail {
		return errFail // want "skips the Put"
	}
	putBuf(p)
	return nil
}

// ScratchLeak leaks a cross-package scratch buffer.
func ScratchLeak(n int, fail bool) int32 {
	q := quantizer.GetIndexBuf(n)
	if fail {
		return 0 // want "skips the Put"
	}
	total := int32(0)
	for _, v := range q {
		total += v
	}
	quantizer.PutIndexBuf(q)
	return total
}

// ScratchOK defers the return of the scratch buffer.
func ScratchOK(n int) int32 {
	q := quantizer.GetIndexBuf(n)
	defer quantizer.PutIndexBuf(q)
	total := int32(0)
	for _, v := range q {
		total += v
	}
	return total
}

// FieldLeak drops a buffer from a two-result Get.
func FieldLeak(n int) bool {
	buf, pooled := quantizer.GetFloatField(n) // want "has no matching Put"
	buf[0] = 1
	return pooled
}

type holder struct{ data []float64 }

// FieldHandoff stores the buffer of a two-result Get where the caller
// finds it: the caller owns the Put.
func FieldHandoff(n int) *holder {
	h := &holder{}
	buf, _ := quantizer.GetFloatField(n)
	h.data = buf
	return h
}

// FloatCopyOK pairs a Get with a differently named Put of the same pool
// by the type of the buffer.
func FloatCopyOK(src []float64) float64 {
	b := quantizer.GetFloatCopy(src)
	defer quantizer.PutFloatBuf(b)
	total := 0.0
	for _, v := range b {
		total += v
	}
	return total
}

// FieldLeakOnError skips the Put of a two-result Get on the error path.
func FieldLeakOnError(n int, fail bool) ([]float64, error) {
	buf, _ := quantizer.GetFloatField(n)
	if fail {
		return nil, errFail // want "skips the Put"
	}
	out := append([]float64(nil), buf...)
	quantizer.PutFloatBuf(buf)
	return out, nil
}
