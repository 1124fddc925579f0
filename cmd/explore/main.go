// Command explore reproduces the paper's QP configuration exploration
// (Section V-C): compression-ratio increase rate over the base compressor
// for each prediction dimension (Figure 7), prediction condition
// (Figure 8), and start level (Figure 9), using SZ3 on the SegSalt and
// Miranda fields as in the paper.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"scdc/internal/core"
	"scdc/internal/datagen"
	"scdc/internal/grid"
	"scdc/internal/sz3"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		os.Exit(1)
	}
}

var relEBs = []float64{1e-3, 3e-4, 1e-4, 3e-5, 1e-5}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	var (
		fig7    = fs.Bool("fig7", false, "prediction dimension exploration (Figure 7)")
		fig8    = fs.Bool("fig8", false, "prediction condition exploration (Figure 8)")
		fig9    = fs.Bool("fig9", false, "start level exploration (Figure 9)")
		seed    = fs.Int64("seed", 1, "synthesis seed")
		dimsArg = fs.String("dims", "", "override field geometry, e.g. 32x32x24 (default: dataset specs)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*fig7 && !*fig8 && !*fig9 {
		*fig7, *fig8, *fig9 = true, true, true
	}
	fieldDims, err := grid.ParseDims(*dimsArg)
	if err != nil {
		return err
	}

	segsalt, err := datagen.Generate(datagen.SegSalt, 1, fieldDims, *seed)
	if err != nil {
		return err
	}
	miranda, err := datagen.Generate(datagen.Miranda, 0, fieldDims, *seed)
	if err != nil {
		return err
	}
	fields := []struct {
		name string
		f    *grid.Field
	}{
		{"SegSalt/Pressure", segsalt},
		{"Miranda/Velocityx", miranda},
	}

	if *fig7 {
		fmt.Fprintln(stdout, "# Figure 7: CR increase rate by prediction dimension (SZ3, Case III, levels 1-2)")
		configs := []struct {
			label string
			cfg   core.Config
		}{
			{"1D-Back", core.Config{Mode: core.Mode1DBack, Cond: core.CondSameSign2, MaxLevel: 2}},
			{"1D-Top", core.Config{Mode: core.Mode1DTop, Cond: core.CondSameSign2, MaxLevel: 2}},
			{"1D-Left", core.Config{Mode: core.Mode1DLeft, Cond: core.CondSameSign2, MaxLevel: 2}},
			{"2D", core.Config{Mode: core.Mode2D, Cond: core.CondSameSign2, MaxLevel: 2}},
			{"3D", core.Config{Mode: core.Mode3D, Cond: core.CondSameSign2, MaxLevel: 2}},
		}
		for _, fld := range fields {
			if err := sweep(stdout, fld.name, fld.f, configs); err != nil {
				return err
			}
		}
	}

	if *fig8 {
		fmt.Fprintln(stdout, "# Figure 8: CR increase rate by prediction condition (SZ3, 2D, levels 1-2)")
		configs := []struct {
			label string
			cfg   core.Config
		}{
			{"Case-I", core.Config{Mode: core.Mode2D, Cond: core.CondAlways, MaxLevel: 2}},
			{"Case-II", core.Config{Mode: core.Mode2D, Cond: core.CondSkipUnpredictable, MaxLevel: 2}},
			{"Case-III", core.Config{Mode: core.Mode2D, Cond: core.CondSameSign2, MaxLevel: 2}},
			{"Case-IV", core.Config{Mode: core.Mode2D, Cond: core.CondSameSign3, MaxLevel: 2}},
		}
		for _, fld := range fields {
			if err := sweep(stdout, fld.name, fld.f, configs); err != nil {
				return err
			}
		}
	}

	if *fig9 {
		fmt.Fprintln(stdout, "# Figure 9: CR increase rate by start level (SZ3, 2D, Case III)")
		configs := []struct {
			label string
			cfg   core.Config
		}{
			{"level-1", core.Config{Mode: core.Mode2D, Cond: core.CondSameSign2, MaxLevel: 1}},
			{"levels-1..2", core.Config{Mode: core.Mode2D, Cond: core.CondSameSign2, MaxLevel: 2}},
			{"levels-1..3", core.Config{Mode: core.Mode2D, Cond: core.CondSameSign2, MaxLevel: 3}},
			{"levels-1..4", core.Config{Mode: core.Mode2D, Cond: core.CondSameSign2, MaxLevel: 4}},
			{"all-levels", core.Config{Mode: core.Mode2D, Cond: core.CondSameSign2, MaxLevel: 0}},
		}
		for _, fld := range fields {
			if err := sweep(stdout, fld.name, fld.f, configs); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweep prints the CR increase rate of each configuration over the plain
// base compressor at each relative error bound.
func sweep(w io.Writer, name string, f *grid.Field, configs []struct {
	label string
	cfg   core.Config
}) error {
	fmt.Fprintf(w, "## %s\n%-12s", name, "rel_eb")
	for _, c := range configs {
		fmt.Fprintf(w, " %11s", c.label)
	}
	fmt.Fprintln(w)
	for _, rel := range relEBs {
		eb := f.Range() * rel
		base := sz3.DefaultOptions(eb)
		base.Choice = sz3.ChoiceInterp
		pb, err := sz3.Compress(f, base)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12g", rel)
		for _, c := range configs {
			opts := base
			opts.QP = c.cfg
			opts.ForceQP = true
			pq, err := sz3.Compress(f, opts)
			if err != nil {
				return err
			}
			gain := 100 * (float64(len(pb))/float64(len(pq)) - 1)
			fmt.Fprintf(w, " %10.2f%%", gain)
		}
		fmt.Fprintln(w)
	}
	return nil
}
