// Command characterize reproduces the paper's quantization-index
// characterization (Section IV): slice-entropy scans over the three
// coordinate planes (Figure 4), region visualizations of the clustering
// effect at the interpolation strides (Figures 3 and 5), and the regional
// entropies before/after QP.
//
//	characterize -fig4                 # per-slice entropy, 3 planes
//	characterize -fig5 -outdir /tmp    # region maps as PGM + entropies
//	characterize -fig3 -outdir /tmp    # full-slice index maps as PGM
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"scdc/internal/charz"
	"scdc/internal/core"
	"scdc/internal/datagen"
	"scdc/internal/grid"
	"scdc/internal/hpez"
	"scdc/internal/mgard"
	"scdc/internal/qoz"
	"scdc/internal/quantizer"
	"scdc/internal/sz3"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "characterize:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	var (
		fig3    = fs.Bool("fig3", false, "dump full-slice index maps (Figure 3)")
		fig4    = fs.Bool("fig4", false, "per-slice entropy in three planes (Figure 4)")
		fig5    = fs.Bool("fig5", false, "regional index maps and entropies, all bases +- QP (Figure 5)")
		outdir  = fs.String("outdir", ".", "directory for PGM output")
		relEB   = fs.Float64("rel", 3e-4, "relative error bound (PSNR ~= 75 on SegSalt)")
		seed    = fs.Int64("seed", 1, "synthesis seed")
		ascii   = fs.Bool("ascii", false, "also print ASCII region maps")
		dimsArg = fs.String("dims", "", "override field geometry, e.g. 32x32x24 (default: dataset spec)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*fig3 && !*fig4 && !*fig5 {
		*fig4 = true
	}
	fieldDims, err := grid.ParseDims(*dimsArg)
	if err != nil {
		return err
	}

	// The paper characterizes the SegSalt Pressure2000 field.
	f, err := datagen.Generate(datagen.SegSalt, 1, fieldDims, *seed)
	if err != nil {
		return err
	}
	eb := f.Range() * *relEB
	dims := f.Dims()

	traceOf := func(name string, qp bool) (*sz3.Trace, error) {
		tr := &sz3.Trace{}
		be := core.DefaultBackend()
		be.Trace = tr
		if qp {
			be = be.WithQP()
		}
		var err error
		switch name {
		case "SZ3":
			o := sz3.DefaultOptions(eb)
			o.Choice = sz3.ChoiceInterp
			o.Backend = be
			_, err = sz3.Compress(f, o)
		case "QoZ":
			o := qoz.DefaultOptions(eb)
			o.Backend = be
			_, err = qoz.Compress(f, o)
		case "HPEZ":
			o := hpez.DefaultOptions(eb)
			o.Backend = be
			_, err = hpez.Compress(f, o)
		case "MGARD":
			o := mgard.DefaultOptions(eb)
			o.Backend = be
			_, err = mgard.Compress(f, o)
		}
		return tr, err
	}

	if *fig4 {
		tr, err := traceOf("SZ3", false)
		if err != nil {
			return err
		}
		q := charz.Centered(tr.Q, quantizer.DefaultRadius)
		fmt.Fprintln(stdout, "# Figure 4: entropy of quantization indices by slice (SZ3, stride 2)")
		for axis, plane := range []string{"yz", "xz", "xy"} {
			es, err := charz.SliceEntropies(q, dims, axis, 2)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "plane orth to axis %d (%s slices):\n", axis, plane)
			for pos := 0; pos < len(es); pos += max(1, len(es)/16) {
				fmt.Fprintf(stdout, "  slice %4d: H=%.3f\n", pos, es[pos])
			}
		}
	}

	if *fig3 {
		tr, err := traceOf("SZ3", false)
		if err != nil {
			return err
		}
		q := charz.Centered(tr.Q, quantizer.DefaultRadius)
		fmt.Fprintln(stdout, "# Figure 3: full-slice index maps (value range [-8, 8])")
		for axis := 0; axis < 3; axis++ {
			pos := dims[axis] / 2
			plane, rows, cols, err := charz.Slice(q, dims, axis, pos)
			if err != nil {
				return err
			}
			path := filepath.Join(*outdir, fmt.Sprintf("fig3_axis%d_slice%d.pgm", axis, pos))
			if err := os.WriteFile(path, charz.RenderPGM(plane, rows, cols, -8, 8), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s (%dx%d)\n", path, cols, rows)
		}
	}

	if *fig5 {
		fmt.Fprintln(stdout, "# Figure 5: regional index maps and entropies (value range [-4, 4])")
		fmt.Fprintf(stdout, "%-6s %-5s %12s %12s %12s\n", "base", "qp", "region0(2x2)", "region1(1x2)", "region2(2x2)")
		for _, name := range []string{"MGARD", "SZ3", "QoZ", "HPEZ"} {
			for _, qp := range []bool{false, true} {
				tr, err := traceOf(name, qp)
				if err != nil {
					return err
				}
				arr := tr.Q
				if qp && len(tr.QP) == len(tr.Q) {
					arr = tr.QP
				}
				q := charz.Centered(arr, quantizer.DefaultRadius)
				var hs [3]float64
				// Three regions analogous to the paper's: one per plane,
				// sub-sampled at the pass strides (2x2, 1x2, 2x2).
				regions := []struct {
					axis, pos, s2, s1 int
					r0, r1, c0, c1    int
				}{
					{0, dims[0] / 3, 2, 2, 10, 40, 10, 40},
					{1, dims[1] / 3, 1, 2, 10, 40, 10, 40},
					{2, dims[2] / 3, 2, 2, 10, 40, 10, 40},
				}
				for i, rg := range regions {
					plane, rows, cols, err := charz.Slice(q, dims, rg.axis, rg.pos)
					if err != nil {
						return err
					}
					sub, nr, nc, err := charz.Subsample(plane, rows, cols, rg.s2, rg.s1)
					if err != nil {
						return err
					}
					hs[i] = charz.RegionalEntropy(sub, nr, nc, rg.r0, rg.r1, rg.c0, rg.c1)
					region, rr, rc := charz.Region(sub, nr, nc, rg.r0, rg.r1, rg.c0, rg.c1)
					tag := "base"
					if qp {
						tag = "qp"
					}
					path := filepath.Join(*outdir, fmt.Sprintf("fig5_%s_%s_region%d.pgm", name, tag, i))
					if err := os.WriteFile(path, charz.RenderPGM(region, rr, rc, -4, 4), 0o644); err != nil {
						return err
					}
					if *ascii && i == 0 {
						fmt.Fprintln(stdout, charz.RenderASCII(region, rr, rc, -4, 4))
					}
				}
				fmt.Fprintf(stdout, "%-6s %-5v %12.3f %12.3f %12.3f\n", name, qp, hs[0], hs[1], hs[2])
			}
		}
	}
	return nil
}
