package inttest

import (
	"testing"

	"scdc/internal/datagen"
	"scdc/internal/sz3"
)

func TestDiagChoice(t *testing.T) {
	for _, ds := range []datagen.Dataset{datagen.Miranda, datagen.SegSalt, datagen.Scale, datagen.CESM, datagen.RTM, datagen.Hurricane, datagen.S3D} {
		f := datagen.MustGenerate(ds, 0, nil, 1)
		rng := f.Range()
		for _, rel := range []float64{1e-3, 1e-4, 1e-5} {
			eb := rel * rng
			oI := sz3.DefaultOptions(eb)
			oI.Choice = sz3.ChoiceInterp
			pI, _ := sz3.Compress(f, oI)
			oL := sz3.DefaultOptions(eb)
			oL.Choice = sz3.ChoiceLorenzo
			pL, _ := sz3.Compress(f, oL)
			tr := &sz3.Trace{}
			oA := sz3.DefaultOptions(eb)
			oA.Trace = tr
			sz3.Compress(f, oA)
			want := "interp"
			if len(pL) < len(pI) {
				want = "lorenzo"
			}
			got := "interp"
			if tr.Lorenzo {
				got = "lorenzo"
			}
			mark := "OK "
			if got != want {
				mark = "BAD"
			}
			t.Logf("%s %-10v rel=%g: interp=%7d lorenzo=%7d auto=%s (true best %s)", mark, ds, rel, len(pI), len(pL), got, want)
		}
	}
}
