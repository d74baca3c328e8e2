// Package goldweb reproduces the system of Luján-Mora, Medina & Trujillo,
// "A Web-Oriented Approach to Manage Multidimensional Models through XML
// Schemas and XSLT" (EDBT 2002 Workshops): an object-oriented conceptual
// multidimensional metamodel, its XML representation validated by an XML
// Schema, and XSLT-driven web presentations — implemented end to end in
// Go on the standard library, including the XML DOM, XPath 1.0,
// XSLT 1.0/1.1 and XML Schema engines the original system borrowed from
// MSXML, Saxon and Xerces.
//
// The facade re-exports the most used surface; the full API lives in the
// internal packages:
//
//	internal/core    — the metamodel, builder, schema and stylesheets
//	internal/xmldom  — XML document object model (parser + serializers)
//	internal/xpath   — XPath 1.0 engine (expressions and match patterns)
//	internal/xslt    — XSLT 1.0 processor with xsl:document (1.1)
//	internal/xsd     — XML Schema validator and quality checker
//	internal/htmlgen — publication pipeline (single/multi page, Fig. 5/6)
//	internal/olap    — multidimensional engine executing cube classes
//	internal/star    — relational star/snowflake export (DDL + DML)
//	internal/server  — the client-server web architecture of §6
//	internal/catalog — resilient multi-model registry over internal/server
package goldweb

import (
	"goldweb/internal/analysis"
	"goldweb/internal/catalog"
	"goldweb/internal/core"
	"goldweb/internal/cwm"
	"goldweb/internal/htmlgen"
	"goldweb/internal/olap"
	"goldweb/internal/server"
	"goldweb/internal/star"
	"goldweb/internal/xmldom"
	"goldweb/internal/xsd"
)

// Conceptual metamodel types.
type (
	// Model is a conceptual multidimensional model.
	Model = core.Model
	// FactClass, DimClass, Level, CubeClass are the model's classes.
	FactClass = core.FactClass
	DimClass  = core.DimClass
	Level     = core.Level
	CubeClass = core.CubeClass
	// ModelBuilder is the fluent construction API.
	ModelBuilder = core.ModelBuilder
	// Operator is a slice comparison operator (EQ, LT, LIKE, ...).
	Operator = core.Operator
	// Multiplicity is a UML role multiplicity (0, 1, M, 1..M).
	Multiplicity = core.Multiplicity
)

// Publication types.
type (
	// Site is a generated web presentation.
	Site = htmlgen.Site
	// PublishOptions configure presentation generation.
	PublishOptions = htmlgen.Options
	// PublishMode selects single- or multi-page output.
	PublishMode = htmlgen.Mode
)

// Analysis types.
type (
	// Dataset holds instance data for a model.
	Dataset = olap.Dataset
	// Query is an executable cube query; Result its table.
	Query  = olap.Query
	Result = olap.Result
)

// The two presentation modes of the paper's §4.
const (
	SinglePage = htmlgen.SinglePage
	MultiPage  = htmlgen.MultiPage
)

// Static analysis types.
type (
	// Diagnostic is one positioned finding from the linter.
	Diagnostic = analysis.Diagnostic
	// DiagSeverity classifies a Diagnostic (error, warning, info).
	DiagSeverity = analysis.Severity
)

// Diagnostic severities.
const (
	SevError   = analysis.SevError
	SevWarning = analysis.SevWarning
	SevInfo    = analysis.SevInfo
)

// Schema is a compiled XML Schema (the validator's unit of work). The
// embedded GOLD schema governs model documents by default; LoadSchema
// compiles any other schema, including multi-file import/include graphs.
type Schema = xsd.Schema

// LoadSchema reads and compiles the schema at path, resolving its
// xs:include and xs:import graph relative to the file, with cycle
// detection and per-file error provenance. The result plugs into
// ValidateXMLAgainst, LintStylesheetAgainst and LintModelAgainst, and
// into CatalogOptions.Schema for serving non-GOLD vocabularies.
func LoadSchema(path string) (*Schema, error) { return xsd.LoadSchemaFile(path) }

// LintStylesheet statically checks an XSLT stylesheet against the GOLD
// XML Schema: every XPath pattern, select and attribute value template
// is cross-checked against the schema's content model, and unreachable
// templates, unused declarations and dangling references are reported.
// The name is used only for diagnostic positions.
func LintStylesheet(name string, src []byte) []Diagnostic {
	return analysis.LintStylesheet(name, src, core.MustSchema())
}

// LintStylesheetAgainst is LintStylesheet parameterized by schema: the
// same schema-aware analysis, driven by any loaded schema's content
// model. Substitution groups widen dispatch sets; xs:any wildcards make
// the checks conservatively silent where the schema is open.
func LintStylesheetAgainst(name string, src []byte, s *Schema) []Diagnostic {
	return analysis.LintStylesheet(name, src, s)
}

// LintModel statically checks a model document: one validation against
// the XML Schema, its structural errors reported as GW401 and its
// key/keyref identity-constraint errors as GW402, with enriched,
// positioned messages.
func LintModel(name string, src []byte) []Diagnostic {
	return analysis.LintModelSource(name, src, core.MustSchema())
}

// LintModelAgainst is LintModel parameterized by schema: it validates
// and cross-checks the document against any loaded schema instead of
// the embedded GOLD one.
func LintModelAgainst(name string, src []byte, s *Schema) []Diagnostic {
	return analysis.LintModelSource(name, src, s)
}

// DiagnosticsHaveErrors reports whether any finding is error-severity.
func DiagnosticsHaveErrors(diags []Diagnostic) bool { return analysis.HasErrors(diags) }

// NewModel starts building a model (the CASE tool's programmatic face).
func NewModel(name string) *ModelBuilder { return core.NewModel(name) }

// SampleSales returns the paper's running example (sales tickets).
func SampleSales() *Model { return core.SampleSales() }

// SampleHospital returns the advanced example with two fact classes,
// a many-to-many dimension and a non-strict complete hierarchy.
func SampleHospital() *Model { return core.SampleHospital() }

// ParseModel reads a goldmodel XML document into a Model.
func ParseModel(src string) (*Model, error) { return core.ModelFromXMLString(src) }

// ModelXML renders a model as its canonical XML document.
func ModelXML(m *Model) string { return m.XMLString() }

// Validate checks a model against both the canonical XML Schema (via its
// XML form) and the metamodel's semantic constraints, returning
// human-readable problems (nil = valid).
func Validate(m *Model) []string {
	var out []string
	for _, e := range core.ValidateModel(m) {
		out = append(out, "schema: "+e.Error())
	}
	for _, e := range m.Validate() {
		out = append(out, "model: "+e.Error())
	}
	return out
}

// ValidateXML validates raw XML text against the canonical schema.
func ValidateXML(src string) []string {
	return ValidateXMLAgainst(src, core.MustSchema())
}

// ValidateXMLAgainst validates raw XML text against any loaded schema,
// returning human-readable problems (nil = valid).
func ValidateXMLAgainst(src string, s *Schema) []string {
	errs := s.ValidateString(src, xsd.ValidateOptions{ApplyDefaults: true})
	out := make([]string, len(errs))
	for i, e := range errs {
		out[i] = e.Error()
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Publish renders a model as a web presentation: one page with
// internal links, or a collection of linked pages (PublishOptions.Mode).
func Publish(m *Model, opts PublishOptions) (*Site, error) { return htmlgen.Publish(m, opts) }

// PublishPerFact renders one focused presentation per fact class (the
// per-fact views of Fig. 5), keyed by fact id. The model document is
// validated and indexed once, then the publications run concurrently on
// up to GOMAXPROCS workers over the shared frozen document.
func PublishPerFact(m *Model, opts PublishOptions) (map[string]*Site, error) {
	return htmlgen.PublishPerFact(m, opts)
}

// FreezeXML indexes a parsed XML tree and marks it immutable: document
// order becomes a stamp comparison, id() and descendant name queries
// answer from per-document indexes, and the tree becomes safe to share
// across goroutines (e.g. one document, many concurrent transforms).
// Mutating a frozen tree panics; use Editable() for a mutable deep copy.
func FreezeXML(n *xmldom.Node) { xmldom.Freeze(n) }

// CheckLinks verifies every internal link of a generated site.
func CheckLinks(s *Site) []error {
	var out []error
	for _, e := range htmlgen.CheckLinks(s) {
		out = append(out, e)
	}
	return out
}

// Serving types (the hardened §6 architecture).
type (
	// Server is the HTTP server performing server-side XSLT.
	Server = server.Server
	// ServerConfig holds the server's settings: the zero value means
	// every default, and a negative bound turns that bound off.
	ServerConfig = server.Config
)

// NewServer creates the HTTP server performing server-side XSLT (§6),
// hardened with panic recovery, bounded waits for publications, load
// shedding and a bounded singleflight presentation cache (see
// internal/server). It refuses a model whose XML document is invalid.
func NewServer(m *Model, cfg ServerConfig) (*Server, error) { return server.New(m, cfg) }

// Multi-model catalog types (the resilient registry in front of
// internal/server): staged hot swaps with rollback, a retrying reloader
// under a per-model circuit breaker, and graceful degradation to
// last-good snapshots.
type (
	// Catalog is a registry of named models, each with its own server.
	Catalog = catalog.Catalog
	// CatalogOptions tunes the catalog's resilience knobs.
	CatalogOptions = catalog.Options
	// CatalogEvent is a swap/retry/breaker lifecycle notification.
	CatalogEvent = catalog.Event
	// CatalogModelStatus is one model's row in Status and /readyz.
	CatalogModelStatus = catalog.ModelStatus
)

// NewCatalog creates a multi-model catalog. Register models with Add;
// serve them with Handler or Serve.
func NewCatalog(opts CatalogOptions) *Catalog { return catalog.New(opts) }

// DirModelLoader loads model XML by name from dir (name.xml), for use
// as CatalogOptions.Loader.
func DirModelLoader(dir string) catalog.LoadFunc { return catalog.DirLoader(dir) }

// NewDataset prepares an empty OLAP dataset for a model.
func NewDataset(m *Model) *Dataset { return olap.NewDataset(m) }

// ExportSQL generates the relational schema (star or snowflake DDL) for a
// model — the paper's export into a target OLAP tool.
func ExportSQL(m *Model, snowflake bool) (string, error) {
	style := star.Star
	if snowflake {
		style = star.Snowflake
	}
	e, err := star.Generate(m, star.Options{Style: style})
	if err != nil {
		return "", err
	}
	return e.DDL(), nil
}

// ExportCWM renders the model as a CWM OLAP XMI interchange document
// (the paper's §6 future work), with the MD properties CWM cannot express
// carried as TaggedValue extensions.
func ExportCWM(m *Model) string { return cwm.ExportString(m) }

// SchemaTree renders the canonical XML Schema as the ASCII tree of Fig. 2.
func SchemaTree(showAttributes bool) string {
	return xsd.Tree(core.MustSchema(), xsd.TreeOptions{ShowAttributes: showAttributes})
}

// PrettyXML pretty-prints a model document (the browser raw view, Fig. 4).
func PrettyXML(m *Model) string { return m.PrettyXML() }

// ParseXML parses any XML text into the project's DOM; exposed so
// downstream users can run their own XPath queries or transforms.
// Resource consumption is bounded by xmldom.DefaultLimits.
func ParseXML(src string) (*xmldom.Node, error) { return xmldom.ParseString(src) }

// XMLLimits bound what a single XML parse may consume (nesting depth,
// input bytes, attributes per element); zero fields mean "no limit".
type XMLLimits = xmldom.Limits

// ParseXMLWithLimits parses untrusted XML under explicit resource
// limits, so hostile documents (10k-deep nests, attribute bombs,
// oversized bodies) fail fast instead of exhausting the process.
func ParseXMLWithLimits(src string, lim XMLLimits) (*xmldom.Node, error) {
	return xmldom.ParseStringWithLimits(src, lim)
}
