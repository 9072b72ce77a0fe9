// Command paper regenerates every table and figure of the paper's
// evaluation: the §IV calibration/validation experiments (Table Ib,
// Fig. 4a/4b) and the §V multi-module scaling study (Figs. 2 and 6-10
// plus the link-energy, amortization, and headline point studies).
//
// Usage:
//
//	paper [-scale f] [-only name] [-list] [-workers n] [-progress]
//	      [-trace out.trace.json[.gz]]
//
// With -only, a single experiment is regenerated; names are table1b,
// fig2, fig4, fig6, fig7, fig8, fig9, fig10, table3, table4,
// linkenergy, amortization, headline, energyattr. The default runs
// everything (tens of minutes at -scale 1).
//
// The DVFS studies (-only sweetspot, racetoidle, roofline) are not part
// of the default report, so the nominal -markdown record stays
// byte-stable. -freq pins the whole evaluation to a K40-curve operating
// point (see internal/dvfs); the adaptive governors run per workload
// under -only sweetspot and -only racetoidle.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gpujoule/internal/dvfs"
	"gpujoule/internal/harness"
	"gpujoule/internal/obs"
	"gpujoule/internal/profiling"
	"gpujoule/internal/runner"
	"gpujoule/internal/sim"
)

func main() {
	prof := profiling.AddFlags()
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper scale)")
	only := flag.String("only", "", "regenerate a single experiment (see -list)")
	markdown := flag.Bool("markdown", false, "emit the EXPERIMENTS.md reproduction record instead of plain tables")
	tables := flag.String("tables", "", "with -markdown: also write the plain-table report to this file")
	csvDir := flag.String("csvdir", "", "with -markdown: also write each experiment's data as CSV into this directory")
	list := flag.Bool("list", false, "list experiment names and exit")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = one per CPU)")
	traceOut := flag.String("trace", "", "write a multi-point Chrome trace_event timeline of every distinct simulation to this file (.gz compresses)")
	freqMHz := flag.Float64("freq", 0, "run the whole evaluation at this K40 V/f-curve frequency in MHz (0 = nominal 1000)")
	progress := flag.Bool("progress", false, "report simulation progress on stderr")
	version := flag.Bool("version", false, "print schema and module version, then exit")
	flag.Parse()

	if *version {
		fmt.Println(profiling.VersionString("paper"))
		return
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
	defer stopProf()

	names := []string{"table3", "table4", "table1b", "fig2", "fig4", "fig6",
		"fig7", "fig8", "fig9", "fig10", "linkenergy", "amortization", "headline", "ablation", "metrics", "perworkload",
		"threshold", "weakscaling", "fidelity", "energyattr", "sweetspot", "racetoidle", "roofline"}
	if *list {
		fmt.Println(strings.Join(names, "\n"))
		return
	}

	opts := harness.Options{Scale: *scale, Workers: *workers, Trace: *traceOut != ""}
	if *freqMHz != 0 {
		p, err := dvfs.K40Curve().AtMHz(*freqMHz)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		opts.OperatingPoint = p
	}
	if *progress {
		opts.OnEvent = func(ev runner.Event) {
			if ev.Kind == runner.PointDone && ev.Err == nil && !ev.CacheHit {
				fmt.Fprintf(os.Stderr, "paper: %d/%d %s (%.2fs)\n",
					ev.Completed, ev.Total, ev.Point, ev.Elapsed.Seconds())
			}
		}
	}
	h := harness.NewWithOptions(opts)
	// writeTrace renders every traced point on the successful exit
	// paths; -trace without traced points (all errors) is itself an
	// error.
	writeTrace := func() {
		if *traceOut == "" {
			return
		}
		pts := h.Engine().Traces()
		if len(pts) == 0 {
			fmt.Fprintln(os.Stderr, "paper: no traced points to write")
			os.Exit(1)
		}
		if err := obs.WriteChromeTracesFile(*traceOut, pts); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "paper: wrote %d traced points to %s\n", len(pts), *traceOut)
	}
	// On every successful exit, -progress closes with the run engine's
	// execution profile (worker occupancy, cache savings, slowest point).
	defer func() {
		if *progress {
			fmt.Fprintf(os.Stderr, "paper: profile %s\n", h.Engine().Profile())
		}
	}()
	out := os.Stdout

	run := func(name string) error {
		switch name {
		case "table3":
			return harness.TableIII().Fprint(out)
		case "table4":
			return harness.TableIV().Fprint(out)
		case "table1b", "fig4":
			v, err := h.Validate()
			if err != nil {
				return err
			}
			for _, t := range harness.ValidationTables(v) {
				if err := t.Fprint(out); err != nil {
					return err
				}
			}
			return nil
		case "fig2":
			rows, err := h.Figure2()
			if err != nil {
				return err
			}
			return harness.Fig2Table(rows).Fprint(out)
		case "fig6":
			rows, err := h.Figure6()
			if err != nil {
				return err
			}
			return harness.Fig6Table(rows).Fprint(out)
		case "fig7":
			rows, err := h.Figure7()
			if err != nil {
				return err
			}
			return harness.Fig7Table(rows).Fprint(out)
		case "fig8":
			rows, err := h.Figure8()
			if err != nil {
				return err
			}
			return harness.Fig8Table(rows).Fprint(out)
		case "fig9":
			rows, err := h.Figure9()
			if err != nil {
				return err
			}
			return harness.Fig9Table(rows).Fprint(out)
		case "fig10":
			rows, err := h.Figure10()
			if err != nil {
				return err
			}
			return harness.Fig10Table(rows).Fprint(out)
		case "linkenergy":
			r, err := h.LinkEnergyStudy()
			if err != nil {
				return err
			}
			return harness.LinkEnergyTable(r).Fprint(out)
		case "amortization":
			r, err := h.AmortizationStudy()
			if err != nil {
				return err
			}
			return harness.AmortizationTable(r).Fprint(out)
		case "headline":
			r, err := h.HeadlineStudy()
			if err != nil {
				return err
			}
			return harness.HeadlineTable(r).Fprint(out)
		case "ablation":
			r, err := h.AblationStudy()
			if err != nil {
				return err
			}
			return harness.AblationTable(r).Fprint(out)
		case "metrics":
			rows, err := h.MetricsStudy()
			if err != nil {
				return err
			}
			return harness.MetricsTable(rows).Fprint(out)
		case "fidelity":
			r, err := h.FidelityStudy()
			if err != nil {
				return err
			}
			return harness.FidelityTable(r).Fprint(out)
		case "threshold":
			rows, err := h.EfficientScaleStudy(50)
			if err != nil {
				return err
			}
			return harness.EfficientScaleTable(rows, 50).Fprint(out)
		case "weakscaling":
			rows, err := h.WeakScalingStudy()
			if err != nil {
				return err
			}
			return harness.WeakScalingTable(rows).Fprint(out)
		case "energyattr":
			t, err := h.EnergyAttributionStudy()
			if err != nil {
				return err
			}
			return t.Fprint(out)
		case "sweetspot":
			r, err := h.SweetSpotStudy(1, nil, "")
			if err != nil {
				return err
			}
			return r.Table().Fprint(out)
		case "racetoidle":
			r, err := h.RaceToIdleStudy()
			if err != nil {
				return err
			}
			return r.Table().Fprint(out)
		case "roofline":
			r, err := h.EnergyRooflineStudy(nil)
			if err != nil {
				return err
			}
			return r.Table().Fprint(out)
		case "perworkload":
			t, err := h.PerWorkloadEDPSE()
			if err != nil {
				return err
			}
			if err := t.Fprint(out); err != nil {
				return err
			}
			t, err = h.PerWorkloadScaling(32, sim.BW2x)
			if err != nil {
				return err
			}
			return t.Fprint(out)
		default:
			return fmt.Errorf("unknown experiment %q (try -list)", name)
		}
	}

	if *markdown {
		rep, err := h.BuildReport()
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		if err := rep.WriteMarkdown(out); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		if *tables != "" {
			f, err := os.Create(*tables)
			if err != nil {
				fmt.Fprintln(os.Stderr, "paper:", err)
				os.Exit(1)
			}
			if err := rep.WriteTables(f); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, "paper:", err)
				os.Exit(1)
			}
			fmt.Fprintf(f, "(%d distinct simulations at scale %g)\n", h.Runs(), *scale)
			f.Close()
		}
		if *csvDir != "" {
			if err := rep.WriteCSVDir(*csvDir); err != nil {
				fmt.Fprintln(os.Stderr, "paper:", err)
				os.Exit(1)
			}
		}
		writeTrace()
		return
	}
	if *only != "" {
		if err := run(*only); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		writeTrace()
		return
	}
	if err := h.RunAll(out); err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "(%d distinct simulations at scale %g)\n", h.Runs(), *scale)
	writeTrace()
}
