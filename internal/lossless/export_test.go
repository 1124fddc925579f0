package lossless

// FlatePlan reports, for each segment the Flate encoder cuts src into,
// whether it runs DEFLATE on it, for the external test package, whose
// workload plaintexts come from the engines (which import this package).
// A buffer of one segment is one whole-buffer pass.
func FlatePlan(src []byte) []bool {
	n := len(src)
	if n <= flateSegment {
		return []bool{true}
	}
	k := (n + flateSegment - 1) / flateSegment
	plan := make([]bool, k)
	for i := range plan {
		plan[i] = flatePays(src[i*n/k : (i+1)*n/k])
	}
	return plan
}

// FlateSegment is flateSegment for the external test package.
const FlateSegment = flateSegment

// FlateBound is flateBound for the external test package.
var FlateBound = flateBound

// FlateBody is one run of DEFLATE blocks over the whole of src, with no
// segment plan, for the external test package.
func FlateBody(src []byte) []byte {
	return flateCompressBody(nil, src)
}
