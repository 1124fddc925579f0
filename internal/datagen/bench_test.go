package datagen

import "testing"

// workloadOf names the benchmark workload that compresses each of
// bitsWorkloads' fields.
var workloadOf = map[Dataset]string{
	Miranda: "sz3_smooth",
	SegSalt: "qoz_tuned",
	Scale:   "hpez_block",
	S3D:     "mgard_tight",
}

// BenchmarkGenerate times the synthesis of each benchmark workload's
// global field, the share of the workload's setup_s row that
// datagen.generate_s reports.
func BenchmarkGenerate(b *testing.B) {
	for _, w := range bitsWorkloads {
		b.Run(workloadOf[w.d], func(b *testing.B) {
			n := 1
			for _, e := range w.dims {
				n *= e
			}
			b.SetBytes(int64(8 * n))
			for i := 0; i < b.N; i++ {
				MustGenerate(w.d, 0, w.dims, 1)
			}
		})
	}
}
