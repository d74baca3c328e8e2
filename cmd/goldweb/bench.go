package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"goldweb/internal/analysis"
	"goldweb/internal/artifact"
	"goldweb/internal/catalog"
	"goldweb/internal/core"
	"goldweb/internal/htmlgen"
	"goldweb/internal/workload"
	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
	"goldweb/internal/xsd"
)

// benchCase is one measured pipeline stage.
type benchCase struct {
	Name string
	Run  func(b *testing.B)
}

// benchResult is the JSON record for one case.
type benchResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchReport is the top-level JSON document.
type benchReport struct {
	Generated string        `json:"generated"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	Cases     []benchResult `json:"cases"`
	Load      []loadCase    `json:"load,omitempty"`
}

// loadCase is one sustained-load scenario and its report.
type loadCase struct {
	Name string `json:"name"`
	workload.LoadReport
}

// nullSink is the measurement ResponseWriter for the serve microbenches:
// header map reused across ops, body discarded, so AllocsPerOp isolates
// the artifact serving path itself.
type nullSink struct{ h http.Header }

func (s *nullSink) Header() http.Header         { return s.h }
func (s *nullSink) Write(p []byte) (int, error) { return len(p), nil }
func (s *nullSink) WriteHeader(int)             {}

// benchCases covers the three pipelines the evaluation tracks: the XSLT
// transformation (single and multi page), the publication fan-out, and
// schema validation with identity constraints.
func benchCases() []benchCase {
	var cases []benchCase
	for _, spec := range []workload.ModelSpec{
		{Facts: 2, Dims: 4, Depth: 2},
		{Facts: 4, Dims: 8, Depth: 2},
	} {
		m := workload.GenModel(spec)
		for _, mode := range []htmlgen.Mode{htmlgen.SinglePage, htmlgen.MultiPage} {
			mode, m, spec := mode, m, spec
			cases = append(cases, benchCase{
				Name: fmt.Sprintf("publish/%s/%s", mode, spec),
				Run: func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := htmlgen.Publish(m, htmlgen.Options{Mode: mode}); err != nil {
							b.Fatal(err)
						}
					}
				},
			})
		}
	}
	schema := core.MustSchema()
	for _, spec := range []workload.ModelSpec{
		{Facts: 4, Dims: 8, Depth: 2},
		{Facts: 8, Dims: 16, Depth: 3},
	} {
		doc := workload.GenModel(spec).ToXML()
		spec := spec
		cases = append(cases, benchCase{
			Name: "validate/" + spec.String(),
			Run: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if errs := schema.Validate(doc, xsd.ValidateOptions{}); len(errs) != 0 {
						b.Fatal(errs[0])
					}
				}
			},
		})
	}
	// Structure-only validation isolates the identity-constraint cost:
	// the delta against the full validate case above is the key/keyref
	// tuple collection the compiled selector/field IR performs.
	{
		doc := workload.GenModel(workload.ModelSpec{Facts: 8, Dims: 16, Depth: 3}).ToXML()
		cases = append(cases, benchCase{
			Name: "validate/structure-only/f8d16h3",
			Run: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if errs := schema.Validate(doc, xsd.ValidateOptions{SkipIdentityConstraints: true}); len(errs) != 0 {
						b.Fatal(errs[0])
					}
				}
			},
		})
	}
	// General-schema validation: the frontier constructs (substitution
	// dispatch, wildcard admission, union and list types) on a non-GOLD
	// vocabulary, isolating their cost from the GOLD fast path above.
	{
		gs, err := xsd.ParseSchemaString(generalBenchSchema)
		if err != nil {
			panic(err)
		}
		doc, err := xmldom.ParseString(generalBenchDoc(200))
		if err != nil {
			panic(err)
		}
		cases = append(cases, benchCase{
			Name: "validate/general-schema/n200",
			Run: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if errs := gs.Validate(doc, xsd.ValidateOptions{}); len(errs) != 0 {
						b.Fatal(errs[0])
					}
				}
			},
		})
	}
	// Compiled-vs-reference expression microbenches: the same XPath run
	// through the planned IR evaluator and through the legacy AST
	// interpreter it is differentially pinned against. The document is
	// frozen so the planner's indexed descendant scans apply.
	xdoc := workload.GenModel(workload.ModelSpec{Facts: 4, Dims: 8, Depth: 2}).ToXML()
	xdoc.Freeze()
	for _, src := range []string{
		"//dimclass",
		"goldmodel/dimclasses/dimclass",
		"//dimatt[@id]",
		"count(//dimclass)",
		"dimclasses/dimclass[3]",
	} {
		c, err := xpath.Compile(src)
		if err != nil {
			panic(err)
		}
		c, src := c, src
		cases = append(cases, benchCase{
			Name: "xpath/compiled/" + src,
			Run: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ctx := xpath.GetContext()
					ctx.Node, ctx.Position, ctx.Size = xdoc, 1, 1
					if _, err := c.Eval(ctx); err != nil {
						b.Fatal(err)
					}
					xpath.PutContext(ctx)
				}
			},
		})
		cases = append(cases, benchCase{
			Name: "xpath/reference/" + src,
			Run: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ctx := xpath.GetContext()
					ctx.Node, ctx.Position, ctx.Size = xdoc, 1, 1
					if _, err := c.EvalReference(ctx); err != nil {
						b.Fatal(err)
					}
					xpath.PutContext(ctx)
				}
			},
		})
	}
	// Catalog hot-swap latency: one Set call runs the whole staged
	// pipeline — parse, xsd-validate, lint gate, shadow publish, atomic
	// generation bump — so this is the time a model is in transition.
	{
		data := []byte(workload.GenModel(workload.ModelSpec{Facts: 2, Dims: 4, Depth: 2}).XMLString())
		cases = append(cases, benchCase{
			Name: "catalog/swap-latency/f2d4h2",
			Run: func(b *testing.B) {
				cat := catalog.New(catalog.Options{
					Loader: func(ctx context.Context, name string) ([]byte, error) {
						return data, nil
					},
					DisableRetry: true,
				})
				defer cat.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := cat.Set(context.Background(), "bench", data); err != nil {
						b.Fatal(err)
					}
				}
			},
		})
	}
	// The static analyzer runs over both built-in stylesheets plus the
	// sales sample — the same work `goldweb lint` does with no args.
	singleSrc := []byte(core.SingleXSL)
	multiSrc := []byte(core.MultiXSL)
	salesSrc := []byte(core.SampleSales().XMLString())
	// Edge-serving microbenches: the content-addressed artifact hot
	// path. The warm conditional 304 and the precompressed-variant hit
	// must stay allocation-free — a regression here multiplies across
	// every request of the sustained-load scenarios below.
	{
		site, err := htmlgen.Publish(core.SampleSales(), htmlgen.Options{Mode: htmlgen.MultiPage})
		if err != nil {
			panic(err)
		}
		a := artifact.New("text/html; charset=utf-8", site.Pages[htmlgen.IndexName])
		if a.Gzip() == nil {
			panic("index page has no gzip variant")
		}
		mkReq := func(hdr http.Header) *http.Request {
			return &http.Request{
				Method: http.MethodGet,
				URL:    &url.URL{Path: "/site/index.html"},
				Header: hdr,
			}
		}
		for _, mc := range []struct {
			name string
			req  *http.Request
		}{
			{"serve/identity-full", mkReq(http.Header{})},
			{"serve/conditional-304", mkReq(http.Header{"If-None-Match": {a.ETag()}})},
			{"serve/gzip-hit", mkReq(http.Header{"Accept-Encoding": {"gzip"}})},
		} {
			mc := mc
			cases = append(cases, benchCase{
				Name: mc.name,
				Run: func(b *testing.B) {
					sink := &nullSink{h: make(http.Header, 8)}
					a.Serve(sink, mc.req, true) // warm the header map
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						a.Serve(sink, mc.req, true)
					}
				},
			})
		}
	}
	cases = append(cases, benchCase{
		Name: "lint/builtins",
		Run: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := len(analysis.LintStylesheet("single.xsl", singleSrc, schema)) +
					len(analysis.LintStylesheet("multi.xsl", multiSrc, schema)) +
					len(analysis.LintModelSource("sales.xml", salesSrc, schema))
				if n != 0 {
					b.Fatalf("%d findings on the clean corpus", n)
				}
			}
		},
	})
	return cases
}

// loadCatalogSpecs sizes the 8-model catalog the sustained-load
// scenarios serve: a spread from small to large models, so the request
// mix touches both cheap and expensive pages.
var loadCatalogSpecs = []workload.ModelSpec{
	{Facts: 1, Dims: 2, Depth: 1},
	{Facts: 1, Dims: 4, Depth: 2},
	{Facts: 2, Dims: 4, Depth: 1},
	{Facts: 2, Dims: 4, Depth: 2},
	{Facts: 2, Dims: 6, Depth: 2},
	{Facts: 4, Dims: 6, Depth: 2},
	{Facts: 4, Dims: 8, Depth: 2},
	{Facts: 4, Dims: 8, Depth: 3},
}

// runLoadCases drives the full catalog handler (middleware, routing,
// artifact serving) with the in-process sustained-load harness. Each
// scenario is one client behavior: cold identity fetches, a realistic
// browser mix, and a revalidation-heavy steady state where nearly every
// response should be a 304.
func runLoadCases(total time.Duration) ([]loadCase, error) {
	sources := map[string][]byte{}
	cat := catalog.New(catalog.Options{
		Loader: func(ctx context.Context, name string) ([]byte, error) {
			return sources[name], nil
		},
		DisableRetry: true,
	})
	defer cat.Close()
	var paths []string
	for i, spec := range loadCatalogSpecs {
		name := fmt.Sprintf("m%d", i+1)
		m := workload.GenModel(spec)
		data := []byte(m.XMLString())
		sources[name] = data
		if err := cat.Set(context.Background(), name, data); err != nil {
			return nil, fmt.Errorf("load catalog %s: %w", name, err)
		}
		site, err := htmlgen.Publish(m, htmlgen.Options{Mode: htmlgen.MultiPage})
		if err != nil {
			return nil, err
		}
		for _, page := range site.Order {
			paths = append(paths, "/m/"+name+"/site/"+page)
		}
	}
	h := cat.Handler()
	scenarios := []struct {
		name string
		spec workload.LoadSpec
	}{
		{"load/cold-identity", workload.LoadSpec{Clients: 8, GzipFrac: 0, CondFrac: 0, Seed: 1}},
		{"load/browser-mix", workload.LoadSpec{Clients: 8, GzipFrac: 0.9, CondFrac: 0.6, Seed: 2}},
		{"load/revalidation-heavy", workload.LoadSpec{Clients: 8, GzipFrac: 0.9, CondFrac: 0.97, Seed: 3}},
	}
	per := total / time.Duration(len(scenarios))
	var out []loadCase
	for _, sc := range scenarios {
		sc.spec.Duration = per
		rep, err := workload.RunLoad(context.Background(), h, paths, sc.spec)
		if err != nil {
			return nil, err
		}
		out = append(out, loadCase{Name: sc.name, LoadReport: *rep})
	}
	return out, nil
}

// loadDuration reads the total load-phase budget from
// GOLDWEB_LOAD_DURATION (the CI smoke job sets 10s; default 3s).
func loadDuration() (time.Duration, error) {
	if v := os.Getenv("GOLDWEB_LOAD_DURATION"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return 0, fmt.Errorf("GOLDWEB_LOAD_DURATION: %w", err)
		}
		return d, nil
	}
	return 3 * time.Second, nil
}

// cmdBench measures the evaluation pipelines with testing.Benchmark and
// prints (or writes) a JSON report — the machine-readable counterpart of
// EXPERIMENTS.md, regenerated per release and diffed in CI.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	outPath := fs.String("o", "", "write the report to a file instead of stdout")
	withLoad := fs.Bool("load", false, "also run the sustained-load edge harness (GOLDWEB_LOAD_DURATION bounds it)")
	loadOnly := fs.Bool("load-only", false, "run only the sustained-load harness, skipping the microbenches")
	if err := fs.Parse(args); err != nil {
		return err
	}
	report := benchReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	if !*loadOnly {
		for _, c := range benchCases() {
			r := testing.Benchmark(c.Run)
			report.Cases = append(report.Cases, benchResult{
				Name:        c.Name,
				N:           r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			})
			if !*jsonOut && *outPath == "" {
				fmt.Printf("%-28s %12.0f ns/op %10d B/op %8d allocs/op\n",
					c.Name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
			}
		}
	}
	if *withLoad || *loadOnly {
		total, err := loadDuration()
		if err != nil {
			return err
		}
		load, err := runLoadCases(total)
		if err != nil {
			return err
		}
		report.Load = load
		if !*jsonOut && *outPath == "" {
			for _, lc := range load {
				fmt.Printf("%-28s %9.0f rps  p50 %5dus  p99 %6dus  304 %5.1f%%  %11d B-wire  %d err\n",
					lc.Name, lc.RPS, lc.P50Micros, lc.P99Micros, 100*lc.Ratio304, lc.BytesOnWire, lc.Errors)
			}
		}
	}
	if !*jsonOut && *outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *outPath != "" {
		return os.WriteFile(*outPath, data, 0o644)
	}
	_, err = os.Stdout.Write(data)
	return err
}

// generalBenchSchema is the non-GOLD vocabulary the general-schema
// validation bench runs against: an abstract substitution head with two
// members, union and list attribute types, and a lax extension wildcard.
const generalBenchSchema = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="When">
    <xsd:union memberTypes="xsd:gYear">
      <xsd:simpleType><xsd:restriction base="xsd:string">
        <xsd:enumeration value="unknown"/>
      </xsd:restriction></xsd:simpleType>
    </xsd:union>
  </xsd:simpleType>
  <xsd:simpleType name="Tags"><xsd:list itemType="xsd:NMTOKEN"/></xsd:simpleType>
  <xsd:element name="publication" type="xsd:string" abstract="true"/>
  <xsd:element name="book" substitutionGroup="publication">
    <xsd:complexType>
      <xsd:sequence><xsd:element name="title" type="xsd:string"/></xsd:sequence>
      <xsd:attribute name="when" type="When" default="unknown"/>
      <xsd:attribute name="tags" type="Tags"/>
    </xsd:complexType>
  </xsd:element>
  <xsd:element name="journal" substitutionGroup="publication">
    <xsd:complexType>
      <xsd:sequence><xsd:element name="title" type="xsd:string"/></xsd:sequence>
      <xsd:attribute name="when" type="When" default="unknown"/>
    </xsd:complexType>
  </xsd:element>
  <xsd:element name="library">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element ref="publication" minOccurs="0" maxOccurs="unbounded"/>
        <xsd:any processContents="lax" minOccurs="0" maxOccurs="unbounded"/>
      </xsd:sequence>
      <xsd:anyAttribute processContents="skip"/>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>`

// generalBenchDoc builds a library instance with n publications (books
// and journals alternating) plus wildcard-admitted extension elements.
func generalBenchDoc(n int) string {
	var b strings.Builder
	b.WriteString(`<library vendor="acme">`)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			fmt.Fprintf(&b, `<book when="1999" tags="classic sf t%d"><title>Book %d</title></book>`, i, i)
		} else {
			fmt.Fprintf(&b, `<journal when="unknown"><title>Journal %d</title></journal>`, i)
		}
	}
	for i := 0; i < n/10; i++ {
		fmt.Fprintf(&b, `<shelf capacity="%d"/>`, i)
	}
	b.WriteString(`</library>`)
	return b.String()
}
