// Benchmarks regenerating every figure of the paper's evaluation plus the
// scaling and ablation measurements DESIGN.md section 4 enumerates. The
// paper is qualitative (six figures, no numeric tables); the benches
// measure the pipeline behind each figure and report structural metrics
// (pages/op, bytes/op) whose *shape* — multi-page output growing with the
// number of fact and dimension classes, per-fact presentations shrinking
// with focus — is the reproducible claim. EXPERIMENTS.md records the
// numbers of a reference run.
package goldweb

import (
	"fmt"
	"io"
	"net/http/httptest"
	"testing"

	"goldweb/internal/core"
	"goldweb/internal/cwm"
	"goldweb/internal/dtd"
	"goldweb/internal/htmlgen"
	"goldweb/internal/olap"
	"goldweb/internal/server"
	"goldweb/internal/star"
	"goldweb/internal/workload"
	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
	"goldweb/internal/xsd"
	"goldweb/internal/xslt"
)

// ---- Fig. 2: the XML Schema as a tree structure ----

func BenchmarkFig2SchemaTree(b *testing.B) {
	schema := core.MustSchema()
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		out := xsd.Tree(schema, xsd.TreeOptions{ShowAttributes: true})
		n = len(out)
	}
	b.ReportMetric(float64(n), "tree-bytes")
}

// ---- Fig. 3: the XML document generated by the CASE tool ----

func BenchmarkFig3GenerateXML(b *testing.B) {
	m := core.SampleSales()
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(m.XMLString())
	}
	b.ReportMetric(float64(n), "doc-bytes")
}

// ---- Fig. 4: the XML document displayed without a stylesheet ----

func BenchmarkFig4PrettyXML(b *testing.B) {
	doc := core.SampleSales().ToXML()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = xmldom.Pretty(doc)
	}
}

// ---- Fig. 5: per-fact-class presentations from one model/stylesheet ----

func BenchmarkFig5PerFactPresentation(b *testing.B) {
	m := core.SampleHospital()
	for _, f := range m.Facts {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			b.ReportAllocs()
			var pages, bytes int
			for i := 0; i < b.N; i++ {
				site, err := htmlgen.Publish(m, htmlgen.Options{Mode: htmlgen.MultiPage, Focus: f.ID})
				if err != nil {
					b.Fatal(err)
				}
				pages = len(site.HTMLPages())
				bytes = site.TotalBytes()
			}
			b.ReportMetric(float64(pages), "pages")
			b.ReportMetric(float64(bytes), "site-bytes")
		})
	}
	b.Run("unfocused", func(b *testing.B) {
		var pages, bytes int
		for i := 0; i < b.N; i++ {
			site, err := htmlgen.Publish(m, htmlgen.Options{Mode: htmlgen.MultiPage})
			if err != nil {
				b.Fatal(err)
			}
			pages = len(site.HTMLPages())
			bytes = site.TotalBytes()
		}
		b.ReportMetric(float64(pages), "pages")
		b.ReportMetric(float64(bytes), "site-bytes")
	})
}

// BenchmarkFig5PerFactFanout compares publishing every per-fact
// presentation one after another against PublishPerFact, which validates
// and freezes the document once and fans the focused publications over a
// worker pool sharing the frozen tree.
func BenchmarkFig5PerFactFanout(b *testing.B) {
	m := core.SampleHospital()
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		var pages, bytes int
		for i := 0; i < b.N; i++ {
			pages, bytes = 0, 0
			for _, f := range m.Facts {
				site, err := htmlgen.Publish(m, htmlgen.Options{Mode: htmlgen.MultiPage, Focus: f.ID})
				if err != nil {
					b.Fatal(err)
				}
				pages += len(site.HTMLPages())
				bytes += site.TotalBytes()
			}
		}
		b.ReportMetric(float64(pages), "pages")
		b.ReportMetric(float64(bytes), "site-bytes")
	})
	b.Run("fanout", func(b *testing.B) {
		b.ReportAllocs()
		var pages, bytes int
		for i := 0; i < b.N; i++ {
			sites, err := htmlgen.PublishPerFact(m, htmlgen.Options{Mode: htmlgen.MultiPage})
			if err != nil {
				b.Fatal(err)
			}
			pages, bytes = 0, 0
			for _, site := range sites {
				pages += len(site.HTMLPages())
				bytes += site.TotalBytes()
			}
		}
		b.ReportMetric(float64(pages), "pages")
		b.ReportMetric(float64(bytes), "site-bytes")
	})
}

// ---- Fig. 6: the multi-page navigable site ----

func BenchmarkFig6MultiPageSite(b *testing.B) {
	m := core.SampleSales()
	b.ReportAllocs()
	var pages, bytes int
	for i := 0; i < b.N; i++ {
		site, err := htmlgen.Publish(m, htmlgen.Options{Mode: htmlgen.MultiPage})
		if err != nil {
			b.Fatal(err)
		}
		pages = len(site.HTMLPages())
		bytes = 0
		for _, p := range site.Pages {
			bytes += len(p)
		}
	}
	b.ReportMetric(float64(pages), "pages")
	b.ReportMetric(float64(bytes), "site-bytes")
}

// ---- §3.2: schema validation of generated documents ----

func BenchmarkValidationSales(b *testing.B) {
	schema := core.MustSchema()
	doc := core.SampleSales().ToXML()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if errs := schema.Validate(doc, xsd.ValidateOptions{}); len(errs) != 0 {
			b.Fatal(errs[0])
		}
	}
}

func BenchmarkValidationScale(b *testing.B) {
	schema := core.MustSchema()
	for _, spec := range []workload.ModelSpec{
		{Facts: 1, Dims: 2, Depth: 1},
		{Facts: 2, Dims: 4, Depth: 2},
		{Facts: 4, Dims: 8, Depth: 2},
		{Facts: 8, Dims: 16, Depth: 3},
	} {
		spec := spec
		b.Run(spec.String(), func(b *testing.B) {
			doc := workload.GenModel(spec).ToXML()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if errs := schema.Validate(doc, xsd.ValidateOptions{}); len(errs) != 0 {
					b.Fatal(errs[0])
				}
			}
			b.ReportMetric(float64(len(doc.DescendantElements(""))), "elements")
		})
	}
}

// ---- §3.1 ablation: keyref referential integrity vs DTD-style IDREF ----

func BenchmarkAblationKeyrefVsIDREF(b *testing.B) {
	schema := core.MustSchema()
	doc := workload.GenModel(workload.ModelSpec{Facts: 4, Dims: 8, Depth: 2, Cubes: true}).ToXML()
	b.Run("keyref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if errs := schema.Validate(doc, xsd.ValidateOptions{}); len(errs) != 0 {
				b.Fatal(errs[0])
			}
		}
	})
	b.Run("idref-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if errs := schema.Validate(doc, xsd.ValidateOptions{SkipIdentityConstraints: true}); len(errs) != 0 {
				b.Fatal(errs[0])
			}
		}
	})
	// The paper's previous proposal: the actual DTD of [16].
	b.Run("dtd", func(b *testing.B) {
		d, err := dtd.Parse(core.SchemaDTD)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if errs := d.Validate(doc); len(errs) != 0 {
				b.Fatal(errs[0])
			}
		}
	})
}

// ---- §4: single page (XSLT 1.0) vs linked pages (XSLT 1.1) ----

func BenchmarkSinglePageVsMultiPage(b *testing.B) {
	for _, spec := range []workload.ModelSpec{
		{Facts: 1, Dims: 2, Depth: 1},
		{Facts: 2, Dims: 4, Depth: 2},
		{Facts: 4, Dims: 8, Depth: 2},
	} {
		m := workload.GenModel(spec)
		for _, mode := range []htmlgen.Mode{htmlgen.SinglePage, htmlgen.MultiPage} {
			mode := mode
			b.Run(fmt.Sprintf("%s/%s", mode, spec), func(b *testing.B) {
				b.ReportAllocs()
				var pages, bytes int
				for i := 0; i < b.N; i++ {
					site, err := htmlgen.Publish(m, htmlgen.Options{Mode: mode})
					if err != nil {
						b.Fatal(err)
					}
					pages = len(site.HTMLPages())
					bytes = 0
					for _, p := range site.Pages {
						bytes += len(p)
					}
				}
				b.ReportMetric(float64(pages), "pages")
				b.ReportMetric(float64(bytes), "site-bytes")
			})
		}
	}
}

// ---- scaling sweeps: transformation cost vs model size ----

func BenchmarkScaleFacts(b *testing.B) {
	for _, facts := range []int{1, 2, 4, 8} {
		m := workload.GenModel(workload.ModelSpec{Facts: facts, Dims: 4, Depth: 2})
		b.Run(fmt.Sprintf("f%d", facts), func(b *testing.B) {
			benchPublish(b, m)
		})
	}
}

func BenchmarkScaleDims(b *testing.B) {
	for _, dims := range []int{2, 4, 8, 16} {
		m := workload.GenModel(workload.ModelSpec{Facts: 2, Dims: dims, Depth: 2})
		b.Run(fmt.Sprintf("d%d", dims), func(b *testing.B) {
			benchPublish(b, m)
		})
	}
}

func BenchmarkScaleDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 3, 4} {
		m := workload.GenModel(workload.ModelSpec{Facts: 2, Dims: 4, Depth: depth})
		b.Run(fmt.Sprintf("h%d", depth), func(b *testing.B) {
			benchPublish(b, m)
		})
	}
}

func benchPublish(b *testing.B, m *core.Model) {
	b.Helper()
	b.ReportAllocs()
	var pages, bytes int
	for i := 0; i < b.N; i++ {
		site, err := htmlgen.Publish(m, htmlgen.Options{Mode: htmlgen.MultiPage})
		if err != nil {
			b.Fatal(err)
		}
		pages = len(site.HTMLPages())
		bytes = site.TotalBytes()
	}
	b.ReportMetric(float64(pages), "pages")
	b.ReportMetric(float64(bytes), "site-bytes")
}

// ---- ablation: stylesheet compiled once vs per transform ----

func BenchmarkAblationStylesheetCompile(b *testing.B) {
	doc := core.SampleSales().ToXML()
	b.Run("compile-once", func(b *testing.B) {
		sheet, err := core.MultiPageStylesheet()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sheet.TransformToBuffers(doc, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile-per-transform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sheet, err := xslt.CompileStylesheetString(core.MultiXSL, xslt.CompileOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sheet.TransformToBuffers(doc, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- §6: server-side transformation over HTTP ----

func BenchmarkServerSideTransform(b *testing.B) {
	srv, err := server.New(core.SampleSales(), server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(ts.URL + "/site/index.html")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// ---- cube-class execution on the OLAP substrate ----

func olapBenchData(b *testing.B) *olap.Dataset {
	b.Helper()
	m := workload.GenModel(workload.ModelSpec{Facts: 1, Dims: 3, Depth: 2, Cubes: true})
	return workload.GenData(m, workload.DataSpec{LeavesPerDim: 100, RowsPerFact: 5000})
}

func BenchmarkOLAPQueryLeafGrouping(b *testing.B) {
	ds := olapBenchData(b)
	q := olap.Query{
		Fact:    "Fact01",
		Aggs:    []olap.Agg{{Measure: "fact01_m1", Op: "SUM"}},
		GroupBy: []olap.GroupBy{{Dim: "Dim01"}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOLAPQueryHierarchyRollup(b *testing.B) {
	ds := olapBenchData(b)
	// fact01_m1 carries an additivity rule along Dim01 (MAX/MIN/AVG only),
	// so the hierarchy grouping aggregates with MAX.
	q := olap.Query{
		Fact: "Fact01",
		Aggs: []olap.Agg{{Measure: "fact01_m1", Op: "MAX"}},
		GroupBy: []olap.GroupBy{
			{Dim: "Dim01", Level: "Dim01L2"},
			{Dim: "Dim02", Level: "Dim02L1"},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOLAPExecuteCubeClass(b *testing.B) {
	ds := olapBenchData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.ExecuteCube("Cube01"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- export into the relational target ----

func BenchmarkStarExport(b *testing.B) {
	m := workload.GenModel(workload.ModelSpec{Facts: 4, Dims: 8, Depth: 2})
	for _, style := range []star.Style{star.Star, star.Snowflake} {
		style := style
		b.Run(style.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := star.Generate(m, star.Options{Style: style}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- §6 future work: CWM interchange ----

func BenchmarkCWMExport(b *testing.B) {
	m := core.SampleSales()
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(cwm.ExportString(m))
	}
	b.ReportMetric(float64(n), "xmi-bytes")
}

// ---- substrate micro-benchmarks ----

func BenchmarkXMLParse(b *testing.B) {
	src := []byte(workload.GenModel(workload.ModelSpec{Facts: 4, Dims: 8, Depth: 2}).XMLString())
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmldom.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXPathQuery(b *testing.B) {
	expr := xpath.MustCompile("//factclass[sharedaggs/sharedagg/@roleb='1']/factatts/factatt[@derived='true']")
	run := func(b *testing.B, doc *xmldom.Node) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := expr.Eval(xpath.NewContext(doc)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("unfrozen", func(b *testing.B) {
		run(b, workload.GenModel(workload.ModelSpec{Facts: 4, Dims: 8, Depth: 2}).ToXML())
	})
	b.Run("frozen", func(b *testing.B) {
		doc := workload.GenModel(workload.ModelSpec{Facts: 4, Dims: 8, Depth: 2}).ToXML()
		xmldom.Freeze(doc)
		run(b, doc)
	})
}
