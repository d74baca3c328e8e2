package main

import (
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"goldweb/internal/core"
	"goldweb/internal/htmlgen"
	"goldweb/internal/workload"
	"goldweb/internal/xsd"
)

// cmdReport regenerates the evaluation series of EXPERIMENTS.md in one
// run: the Fig. 5/6 page inventories and the scaling sweeps for
// validation and publication.
func cmdReport(args []string) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)

	fmt.Fprintln(w, "== Fig. 6: multi-page site of the sales model ==")
	sales := core.SampleSales()
	site, err := htmlgen.Publish(sales, htmlgen.Options{Mode: htmlgen.MultiPage})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pages\t%d\n", len(site.HTMLPages()))
	for _, p := range site.HTMLPages() {
		fmt.Fprintf(w, "\t%s\t%d bytes\n", p, len(site.Page(p)))
	}
	if errs := htmlgen.CheckLinks(site); len(errs) == 0 {
		fmt.Fprintln(w, "link integrity\tOK")
	} else {
		fmt.Fprintf(w, "link integrity\t%d broken\n", len(errs))
	}

	fmt.Fprintln(w, "\n== Fig. 5: per-fact presentations of the hospital model ==")
	hospital := core.SampleHospital()
	fmt.Fprintln(w, "presentation\tpages\thidden dimensions")
	for _, f := range hospital.Facts {
		s, err := htmlgen.Publish(hospital, htmlgen.Options{Mode: htmlgen.MultiPage, Focus: f.ID})
		if err != nil {
			return err
		}
		hidden := 0
		for _, d := range hospital.Dims {
			if s.Page(d.ID+".html") == nil {
				hidden++
			}
		}
		fmt.Fprintf(w, "focus=%s\t%d\t%d\n", f.Name, len(s.HTMLPages()), hidden)
	}
	full, err := htmlgen.Publish(hospital, htmlgen.Options{Mode: htmlgen.MultiPage})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "unfocused\t%d\t0\n", len(full.HTMLPages()))

	fmt.Fprintln(w, "\n== §3.2: validation cost vs model size ==")
	fmt.Fprintln(w, "model\telements\ttime")
	schema := core.MustSchema()
	for _, spec := range []workload.ModelSpec{
		{Facts: 1, Dims: 2, Depth: 1},
		{Facts: 2, Dims: 4, Depth: 2},
		{Facts: 4, Dims: 8, Depth: 2},
		{Facts: 8, Dims: 16, Depth: 3},
	} {
		// Each rep validates a fresh document, built outside the timer,
		// as a swap does: one walk that applies defaults and freezes.
		m := workload.GenModel(spec)
		const reps = 5
		var elapsed time.Duration
		var elements int
		for i := 0; i < reps; i++ {
			doc := m.ToXML()
			start := time.Now()
			val := schema.ValidateAndFreeze(doc, xsd.ValidateOptions{ApplyDefaults: true})
			elapsed += time.Since(start)
			if len(val.Errors) != 0 {
				return fmt.Errorf("unexpected invalid model %s: %v", spec, val.Errors[0])
			}
			elements = len(doc.DescendantElements(""))
		}
		fmt.Fprintf(w, "%s\t%d\t%v\n", spec, elements, elapsed/reps)
	}

	fmt.Fprintln(w, "\n== §4: single page (XSLT 1.0) vs linked pages (XSLT 1.1) ==")
	fmt.Fprintln(w, "model\tmode\tpages\tbytes\ttime")
	for _, spec := range []workload.ModelSpec{
		{Facts: 1, Dims: 2, Depth: 1},
		{Facts: 2, Dims: 4, Depth: 2},
		{Facts: 4, Dims: 8, Depth: 2},
	} {
		m := workload.GenModel(spec)
		for _, mode := range []htmlgen.Mode{htmlgen.SinglePage, htmlgen.MultiPage} {
			start := time.Now()
			s, err := htmlgen.Publish(m, htmlgen.Options{Mode: mode})
			if err != nil {
				return err
			}
			bytes := 0
			for _, p := range s.Pages {
				bytes += len(p)
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%v\n", spec, mode,
				len(s.HTMLPages()), bytes, time.Since(start))
		}
	}
	return w.Flush()
}
