// Command goldweb is the batch face of the CASE tool: it validates,
// publishes, serves and exports conceptual multidimensional models, and
// doubles as a generic XSLT processor and XML Schema checker.
//
// Usage:
//
//	goldweb sample [sales|hospital]          print a sample model document
//	goldweb validate <model.xml>             schema + metamodel validation
//	goldweb pretty <model.xml>               pretty-print (browser raw view)
//	goldweb publish -o <dir> <model.xml>     generate the HTML presentation
//	goldweb serve -addr :8080 <model.xml>    server-side XSLT over HTTP
//	goldweb serve -catalog <dir>             resilient multi-model catalog
//	goldweb export -style star <model.xml>   relational DDL export
//	goldweb schema                           print the canonical XML Schema
//	goldweb schema-tree [-attrs]             the schema as a tree (Fig. 2)
//	goldweb check-schema <schema.xsd>        XML Schema quality checker
//	goldweb cwm <model.xml>                  CWM OLAP interchange export
//	goldweb report                           regenerate the evaluation series
//	goldweb transform <doc.xml> <sheet.xsl>  generic XSLT 1.0/1.1 processor
//	goldweb lint [-json] [path ...]          schema-aware static analysis
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"goldweb/internal/catalog"
	"goldweb/internal/core"
	"goldweb/internal/cwm"
	"goldweb/internal/dtd"
	"goldweb/internal/htmlgen"
	"goldweb/internal/server"
	"goldweb/internal/star"
	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
	"goldweb/internal/xsd"
	"goldweb/internal/xslt"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "sample":
		err = cmdSample(args)
	case "validate":
		err = cmdValidate(args)
	case "pretty":
		err = cmdPretty(args)
	case "publish":
		err = cmdPublish(args)
	case "serve":
		err = cmdServe(args)
	case "export":
		err = cmdExport(args)
	case "schema":
		fmt.Print(core.SchemaXSD)
	case "schema-tree":
		err = cmdSchemaTree(args)
	case "check-schema":
		err = cmdCheckSchema(args)
	case "cwm":
		err = cmdCWM(args)
	case "report":
		err = cmdReport(args)
	case "transform":
		err = cmdTransform(args)
	case "lint":
		err = cmdLint(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "goldweb: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "goldweb:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `goldweb - manage multidimensional models through XML Schemas and XSLT

  goldweb sample [sales|hospital]          print a sample model document
  goldweb validate [-dtd] <model.xml>      schema (or legacy DTD) validation
  goldweb validate -schema f.xsd <doc.xml> validate any document against any
                                           schema (include/import resolved)
  goldweb pretty <model.xml>               pretty-print (browser raw view)
  goldweb publish -o <dir> <model.xml>     generate the HTML presentation
  goldweb serve [-addr :8080] [-timeout 30s] [-max-inflight 64] [-cache-size 64] [-cache-bytes N] [-compress=false] [-lint strict|warn|off] <model.xml>
                                           server-side XSLT over HTTP
  goldweb serve -catalog <dir> [-retry=false] [-breaker-threshold 5]
                                           resilient multi-model catalog:
                                           staged hot swaps with rollback,
                                           retrying reloader, circuit breaker
  goldweb export [-style ...] <model.xml>  relational DDL export
  goldweb schema                           print the canonical XML Schema
  goldweb schema-tree [-attrs] [-f f.xsd]  the schema as a tree (Fig. 2)
  goldweb check-schema <schema.xsd>        XML Schema quality checker
  goldweb cwm <model.xml>                  CWM OLAP interchange export
  goldweb report                           regenerate the evaluation series
  goldweb transform <doc.xml> <sheet.xsl>  generic XSLT processor
  goldweb lint [-json] [-schema f.xsd] [path ...]
                                           schema-aware static analysis of
                                           stylesheets and model documents

  serve also accepts -schema f.xsd to validate and lint against a custom
  schema (xs:include/xs:import graphs resolve relative to the file); it
  must still describe goldmodel documents, which serve publishes.`)
}

func loadModelFile(path string) (*core.Model, *xmldom.Node, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return modelFromBytes(data)
}

// modelFromBytes parses a model document and builds its model.
func modelFromBytes(data []byte) (*core.Model, *xmldom.Node, error) {
	doc, err := xmldom.Parse(data)
	if err != nil {
		return nil, nil, err
	}
	m, err := core.ModelFromXML(doc)
	if err != nil {
		return nil, nil, err
	}
	return m, doc, nil
}

func sampleByName(name string) (*core.Model, error) {
	switch name {
	case "", "sales":
		return core.SampleSales(), nil
	case "hospital":
		return core.SampleHospital(), nil
	}
	return nil, fmt.Errorf("unknown sample %q (want sales or hospital)", name)
}

func cmdSample(args []string) error {
	name := ""
	if len(args) > 0 {
		name = args[0]
	}
	m, err := sampleByName(name)
	if err != nil {
		return err
	}
	fmt.Print(m.PrettyXML())
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	useDTD := fs.Bool("dtd", false, "validate against the paper's previous DTD proposal instead of the XML Schema")
	schemaPath := fs.String("schema", "", "validate against this schema (with its xs:include/xs:import graph) instead of the GOLD metamodel")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: goldweb validate [-dtd|-schema file.xsd] <model.xml>")
	}
	if *schemaPath != "" {
		if *useDTD {
			return fmt.Errorf("validate: -dtd and -schema are mutually exclusive")
		}
		// Generic instance validation: any document against any schema.
		// The GOLD metamodel's semantic checks do not apply here.
		s, err := xsd.LoadSchemaFile(*schemaPath)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		doc, err := xmldom.Parse(data)
		if err != nil {
			return err
		}
		errs := s.Validate(doc, xsd.ValidateOptions{ApplyDefaults: true})
		for _, e := range errs {
			fmt.Printf("schema: %s\n", e)
		}
		if len(errs) > 0 {
			return fmt.Errorf("%d problems", len(errs))
		}
		fmt.Printf("VALID against %s (%d source files): <%s>\n",
			*schemaPath, len(s.SourceFiles()), doc.DocumentElement().Name)
		return nil
	}
	if *useDTD {
		// DTD validation works on the raw document: a DTD cannot see the
		// data-type problems that would stop the model loader.
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		doc, err := xmldom.Parse(data)
		if err != nil {
			return err
		}
		d, err := dtd.Parse(core.SchemaDTD)
		if err != nil {
			return err
		}
		errs := d.Validate(doc)
		for _, e := range errs {
			fmt.Printf("dtd: %s\n", e)
		}
		if len(errs) > 0 {
			return fmt.Errorf("%d problems", len(errs))
		}
		fmt.Printf("VALID (DTD only — no data types, unselective references): %s\n",
			doc.DocumentElement().AttrValue("name"))
		return nil
	}
	m, doc, err := loadModelFile(fs.Arg(0))
	if err != nil {
		return err
	}
	schemaErrs := core.ValidateDocument(doc)
	semErrs := m.Validate()
	for _, e := range schemaErrs {
		fmt.Printf("schema: %s\n", e)
	}
	for _, e := range semErrs {
		fmt.Printf("model: %s\n", e)
	}
	if len(schemaErrs)+len(semErrs) > 0 {
		return fmt.Errorf("%d problems", len(schemaErrs)+len(semErrs))
	}
	fmt.Printf("VALID: %s (%d fact classes, %d dimension classes, %d cube classes)\n",
		m.Name, len(m.Facts), len(m.Dims), len(m.Cubes))
	return nil
}

func cmdPretty(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: goldweb pretty <model.xml>")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	doc, err := xmldom.Parse(data)
	if err != nil {
		return err
	}
	fmt.Print(xmldom.Pretty(doc))
	return nil
}

func cmdPublish(args []string) error {
	fs := flag.NewFlagSet("publish", flag.ContinueOnError)
	out := fs.String("o", "site", "output directory")
	mode := fs.String("mode", "multi", "presentation mode: single or multi")
	focus := fs.String("focus", "", "restrict to one fact class id (Fig. 5)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: goldweb publish [-o dir] [-mode single|multi] [-focus id] <model.xml>")
	}
	_, doc, err := loadModelFile(fs.Arg(0))
	if err != nil {
		return err
	}
	opts := htmlgen.Options{Focus: *focus}
	switch *mode {
	case "single":
		opts.Mode = htmlgen.SinglePage
	case "multi":
		opts.Mode = htmlgen.MultiPage
	default:
		return fmt.Errorf("bad -mode %q", *mode)
	}
	site, err := htmlgen.PublishDocument(doc, opts)
	if err != nil {
		return err
	}
	if errs := htmlgen.CheckLinks(site); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "link:", e)
		}
		return fmt.Errorf("%d broken links", len(errs))
	}
	if err := site.WriteTo(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %d pages to %s (%s)\n", len(site.Pages), *out, opts.Mode)
	for _, name := range site.Order {
		fmt.Println("  " + filepath.Join(*out, name))
	}
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	timeout := fs.Duration("timeout", server.DefaultRequestTimeout, "how long a request waits for a publication; 504 past it (0 disables)")
	maxInflight := fs.Int("max-inflight", server.DefaultMaxInflight, "max concurrent requests; excess sheds with 503 (0 disables)")
	cacheSize := fs.Int("cache-size", server.DefaultCacheSize, "max cache entries, each a presentation or a page (LRU)")
	cacheBytes := fs.Int64("cache-bytes", server.DefaultCacheBytes, "presentation cache byte budget (LRU; 0 disables)")
	compress := fs.Bool("compress", true, "serve precompressed gzip variants to Accept-Encoding clients")
	lintPolicy := fs.String("lint", "warn", "pre-serve static analysis: strict (errors refuse to start), warn, off")
	catalogDir := fs.String("catalog", "", "serve every *.xml in this directory as /m/{name}/ (multi-model mode)")
	retry := fs.Bool("retry", true, "catalog mode: retry failing model reloads in the background with exponential backoff")
	breakerThreshold := fs.Int("breaker-threshold", catalog.DefaultBreakerThreshold, "catalog mode: consecutive reload failures that open a model's circuit breaker (negative disables)")
	schemaPath := fs.String("schema", "", "validate and lint models against this schema (with its include/import graph) instead of the embedded GOLD schema")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Both modes read these the same way: one -lint parse, and a cache
	// of at least one entry (a single-model server would round 0 up to 1
	// and a catalog would read it as the default).
	policy, err := parseLintPolicy(*lintPolicy)
	if err != nil {
		return err
	}
	if *cacheSize < 1 {
		return fmt.Errorf("bad -cache-size %d (want at least 1)", *cacheSize)
	}
	var schema *xsd.Schema
	if *schemaPath != "" {
		schema, err = xsd.LoadSchemaFile(*schemaPath)
		if err != nil {
			return fmt.Errorf("loading -schema: %w", err)
		}
	}
	if *catalogDir != "" {
		if fs.NArg() != 0 {
			return fmt.Errorf("serve: -catalog and a model file are mutually exclusive")
		}
		opts := catalogServeOptions(*timeout, *maxInflight, *cacheSize, *cacheBytes, *compress)
		opts.Lint, opts.Schema = policy, schema
		opts.BreakerThreshold, opts.DisableRetry = *breakerThreshold, !*retry
		return serveCatalog(*catalogDir, *addr, opts)
	}
	var m *core.Model
	var lintName string
	var lintSrc []byte
	if fs.NArg() == 0 {
		m = core.SampleSales()
		lintName, lintSrc = "sample:sales.xml", []byte(m.XMLString())
	} else {
		// One read: the model served is built from the bytes the gate lints.
		lintName = fs.Arg(0)
		lintSrc, err = os.ReadFile(lintName)
		if err != nil {
			return err
		}
		m, _, err = modelFromBytes(lintSrc)
		if err != nil {
			if schema != nil {
				// The publication pipeline renders GOLD models; a custom
				// -schema can refine that vocabulary but not replace it.
				return fmt.Errorf("serve publishes goldmodel documents (use validate/lint -schema for other vocabularies): %w", err)
			}
			return err
		}
	}
	if err := lintGate(policy, lintName, lintSrc, schema); err != nil {
		return err
	}
	srv := server.New(m,
		server.WithRequestTimeout(*timeout),
		server.WithMaxInflight(*maxInflight),
		server.WithCacheSize(*cacheSize),
		server.WithCacheBytes(*cacheBytes),
		server.WithCompression(*compress))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("serving %q on %s (site at /site/index.html, health at /healthz)\n", m.Name, *addr)
	return srv.Serve(ctx, *addr)
}

// catalogServeOptions maps the serve limit flags onto catalog.Options.
// The flags read 0 as "disabled", as single-model serving does, while
// catalog.Options reads 0 as "server default" and a negative value as
// disabled.
func catalogServeOptions(timeout time.Duration, maxInflight, cacheSize int, cacheBytes int64, compress bool) catalog.Options {
	return catalog.Options{
		RequestTimeout: zeroDisables(timeout),
		MaxInflight:    zeroDisables(maxInflight),
		CacheSize:      cacheSize,
		CacheBytes:     zeroDisables(cacheBytes),
		NoCompress:     !compress,
	}
}

// zeroDisables maps a flag's "0 disables" onto an option's negative.
func zeroDisables[T int | int64 | time.Duration](v T) T {
	if v == 0 {
		return -1
	}
	return v
}

// serveCatalog runs the resilient multi-model surface: every model in
// dir goes through the staged swap pipeline, a failing model keeps
// serving its last-good site (marked stale) while the background
// reloader retries under the circuit breaker, and lifecycle events
// stream to stdout.
func serveCatalog(dir, addr string, opts catalog.Options) error {
	names, err := catalog.DirModels(dir)
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("serve: no *.xml models in %s", dir)
	}
	opts.Loader = catalog.DirLoader(dir)
	opts.OnEvent = printCatalogEvent
	c := catalog.New(opts)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for _, name := range names {
		if err := c.Add(ctx, name); err != nil {
			fmt.Printf("model %s: first load failed: %v (serving 503 until a retry succeeds)\n", name, err)
		}
	}
	fmt.Printf("serving %d models on %s (index at /catalog, health at /readyz, models at /m/{name}/)\n", len(names), addr)
	return c.Serve(ctx, addr)
}

func printCatalogEvent(ev catalog.Event) {
	switch ev.Type {
	case catalog.EventSwapCommitted:
		fmt.Printf("model %s: generation %d live\n", ev.Model, ev.Gen)
	case catalog.EventStageFailed:
		fmt.Printf("model %s: stage %s failed (attempt %d): %v\n", ev.Model, ev.Stage, ev.Attempt, ev.Err)
	case catalog.EventRetryScheduled:
		fmt.Printf("model %s: retry %d in %s\n", ev.Model, ev.Attempt, ev.Delay.Round(time.Millisecond))
	case catalog.EventBreakerOpened:
		fmt.Printf("model %s: circuit breaker open\n", ev.Model)
	case catalog.EventBreakerClosed:
		fmt.Printf("model %s: circuit breaker closed\n", ev.Model)
	case catalog.EventLintFindings:
		fmt.Printf("model %s: lint: %v\n", ev.Model, ev.Err)
	}
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	style := fs.String("style", "star", "relational layout: star or snowflake")
	prefix := fs.String("prefix", "", "table name prefix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: goldweb export [-style star|snowflake] <model.xml>")
	}
	m, _, err := loadModelFile(fs.Arg(0))
	if err != nil {
		return err
	}
	opts := star.Options{Prefix: *prefix}
	switch *style {
	case "star":
		opts.Style = star.Star
	case "snowflake":
		opts.Style = star.Snowflake
	default:
		return fmt.Errorf("bad -style %q", *style)
	}
	e, err := star.Generate(m, opts)
	if err != nil {
		return err
	}
	fmt.Print(e.DDL())
	return nil
}

func cmdSchemaTree(args []string) error {
	fs := flag.NewFlagSet("schema-tree", flag.ContinueOnError)
	attrs := fs.Bool("attrs", false, "show attributes")
	file := fs.String("f", "", "render this schema file instead of the canonical one")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := core.MustSchema()
	if *file != "" {
		var err error
		s, err = xsd.LoadSchemaFile(*file)
		if err != nil {
			return err
		}
	}
	fmt.Print(xsd.Tree(s, xsd.TreeOptions{ShowAttributes: *attrs}))
	return nil
}

func cmdCheckSchema(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: goldweb check-schema <schema.xsd>")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	issues := xsd.CheckSchemaString(string(data))
	if len(issues) == 0 {
		fmt.Println("schema is clean")
		return nil
	}
	errors := 0
	for _, i := range issues {
		fmt.Println(i)
		if i.Severity == "error" {
			errors++
		}
	}
	if errors > 0 {
		return fmt.Errorf("%d errors", errors)
	}
	return nil
}

func cmdTransform(args []string) error {
	fs := flag.NewFlagSet("transform", flag.ContinueOnError)
	out := fs.String("o", "", "output directory for xsl:document results (default: discard extra documents)")
	var params paramList
	fs.Var(&params, "param", "stylesheet parameter name=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: goldweb transform [-param k=v] [-o dir] <doc.xml> <sheet.xsl>")
	}
	docData, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	doc, err := xmldom.Parse(docData)
	if err != nil {
		return err
	}
	sheetData, err := os.ReadFile(fs.Arg(1))
	if err != nil {
		return err
	}
	baseDir := filepath.Dir(fs.Arg(1))
	loader := func(href string) (*xmldom.Node, error) {
		data, err := os.ReadFile(filepath.Join(baseDir, href))
		if err != nil {
			return nil, err
		}
		return xmldom.Parse(data)
	}
	sheet, err := xslt.CompileStylesheetString(string(sheetData), xslt.CompileOptions{Loader: loader})
	if err != nil {
		return err
	}
	p := map[string]xpath.Value{}
	for _, kv := range params {
		i := strings.IndexByte(kv, '=')
		if i < 0 {
			return fmt.Errorf("bad -param %q (want name=value)", kv)
		}
		p[kv[:i]] = xpath.String(kv[i+1:])
	}
	res, err := sheet.TransformToBuffers(doc, p)
	if err != nil {
		return err
	}
	for _, msg := range res.Messages {
		fmt.Fprintln(os.Stderr, "xsl:message:", msg)
	}
	os.Stdout.Write(res.Main)
	if *out == "" {
		if len(res.DocumentOrder) > 0 {
			fmt.Fprintf(os.Stderr, "note: %d xsl:document outputs discarded (use -o dir)\n", len(res.DocumentOrder))
		}
		return nil
	}
	for _, href := range res.DocumentOrder {
		if !filepath.IsLocal(href) {
			return fmt.Errorf("xsl:document href %q is not a local path under %s", href, *out)
		}
	}
	for _, href := range res.DocumentOrder {
		path := filepath.Join(*out, href)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, res.Documents[href], 0o644); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
	}
	return nil
}

// paramList implements flag.Value for repeated -param flags.
type paramList []string

func (p *paramList) String() string { return strings.Join(*p, ",") }
func (p *paramList) Set(v string) error {
	*p = append(*p, v)
	return nil
}

func cmdCWM(args []string) error {
	var m *core.Model
	var err error
	if len(args) == 0 {
		m = core.SampleSales()
	} else {
		m, _, err = loadModelFile(args[0])
		if err != nil {
			return err
		}
	}
	fmt.Print(cwm.ExportString(m))
	return nil
}
