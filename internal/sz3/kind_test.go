package sz3_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"scdc/internal/core"
	"scdc/internal/datagen"
	"scdc/internal/grid"
	"scdc/internal/lossless"
	"scdc/internal/qoz"
	"scdc/internal/sz3"
	"scdc/internal/verdict"
)

// TestInterpKindValidated: the kernels know two interpolation kinds, so
// any other kind byte is refused — by sz3.Compress as a bad option, and
// on decode, in the SZ3 header and in a QoZ plan level, as a corrupt
// stream even when the lossless layer around it is intact. The control
// rewraps the unpatched byte and must decode.
func TestInterpKindValidated(t *testing.T) {
	f := datagen.MustGenerate(datagen.Miranda, 1, []int{16, 16, 16}, 1)
	eb := 1e-3 * f.Range()
	opts := sz3.DefaultOptions(eb)
	opts.Choice = sz3.ChoiceInterp

	bad := opts
	bad.Interp = 7
	if _, err := sz3.Compress(f, bad); !errors.Is(err, verdict.ErrBadOptions) {
		t.Errorf("Compress with Interp 7: err %v, want ErrBadOptions", err)
	}

	sz3Payload, err := sz3.Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	qozPayload, err := qoz.Compress(f, qoz.DefaultOptions(eb))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		payload []byte
		kindAt  func(plain []byte) int // offset of the kind byte in the plaintext
		decode  func([]byte, []int) (*grid.Field, error)
	}{
		// mode, kind, ...
		{"sz3", sz3Payload, func([]byte) int { return 1 }, sz3.Decompress},
		// qp mode, qp condition, uvarint max level, uvarint radius,
		// uvarint level count, then level 1's kind.
		{"qoz", qozPayload, func(plain []byte) int {
			i := 2
			for k := 0; k < 3; k++ {
				_, n := binary.Uvarint(plain[i:])
				i += n
			}
			return i
		}, qoz.Decompress},
	}
	for _, tc := range cases {
		plain, err := core.DecompressLossless(tc.payload, lossless.PayloadLimit(f.Len()), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		at := tc.kindAt(plain)
		orig := plain[at]
		for _, kind := range []byte{orig, 2, 7, 255} {
			plain[at] = kind
			payload, err := core.CompressLossless(lossless.Flate, plain, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, err = tc.decode(payload, f.Dims())
			if kind == orig {
				if err != nil {
					t.Fatalf("%s: rewrapped stream with its own kind %d: %v", tc.name, kind, err)
				}
			} else if !errors.Is(err, verdict.ErrCorrupt) {
				t.Errorf("%s: kind byte %d: err %v, want ErrCorrupt", tc.name, kind, err)
			}
		}
	}
}
