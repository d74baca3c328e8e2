package core

import (
	_ "embed"
	"sync"

	"goldweb/internal/xmldom"
	"goldweb/internal/xsd"
	"goldweb/internal/xslt"
)

// Canonical embedded assets: the XML Schema of §3.1, the two XSLT
// presentations of §4 and the CSS they link.
var (
	//go:embed assets/goldmodel.xsd
	SchemaXSD string

	//go:embed assets/single.xsl
	SingleXSL string

	//go:embed assets/multi.xsl
	MultiXSL string

	//go:embed assets/style.css
	StyleCSS string

	// SchemaDTD is the DTD of the paper's previous proposal ([16]),
	// retained so the §3.1 DTD-vs-Schema comparison is executable.
	//go:embed assets/goldmodel.dtd
	SchemaDTD string
)

var (
	schemaOnce sync.Once
	schema     *xsd.Schema
	schemaErr  error
)

// Schema returns the compiled canonical goldmodel schema.
func Schema() (*xsd.Schema, error) {
	schemaOnce.Do(func() {
		schema, schemaErr = xsd.ParseSchemaString(SchemaXSD)
	})
	return schema, schemaErr
}

// MustSchema is Schema for contexts where the embedded schema is known
// good (it is covered by tests).
func MustSchema() *xsd.Schema {
	s, err := Schema()
	if err != nil {
		panic(err)
	}
	return s
}

// ValidateDocument validates a goldmodel document against the canonical
// schema, applying attribute defaults to the instance (what a validating
// parser contributes), and returns all violations. Like every validation
// it freezes the document in place (see xsd.Schema.Validate).
func ValidateDocument(doc *xmldom.Node) []xsd.ValidationError {
	return MustSchema().Validate(doc, xsd.ValidateOptions{ApplyDefaults: true})
}

// ValidateAndFreeze is ValidateDocument returning the whole validation
// result; the frozen document is ready to be shared by concurrent
// publications.
func ValidateAndFreeze(doc *xmldom.Node) *xsd.Validated {
	return MustSchema().ValidateAndFreeze(doc, xsd.ValidateOptions{ApplyDefaults: true})
}

// ValidateModel marshals the model and validates the result against the
// canonical schema, i.e. the full CASE-tool round trip of §3.2.
func ValidateModel(m *Model) []xsd.ValidationError {
	return ValidateDocument(m.ToXML())
}

var (
	singleOnce sync.Once
	singleXSLT *xslt.Stylesheet
	singleErr  error

	multiOnce sync.Once
	multiXSLT *xslt.Stylesheet
	multiErr  error
)

// SinglePageStylesheet returns the compiled embedded XSLT 1.0
// single-page presentation. Compiled stylesheets are read-only and safe
// for concurrent transformations, so the same instance is shared
// process-wide (compiled once).
func SinglePageStylesheet() (*xslt.Stylesheet, error) {
	singleOnce.Do(func() {
		singleXSLT, singleErr = xslt.CompileStylesheetString(SingleXSL, xslt.CompileOptions{})
	})
	return singleXSLT, singleErr
}

// MultiPageStylesheet returns the compiled embedded XSLT 1.1 multi-page
// presentation (one page per class, via xsl:document), shared and
// compiled once like SinglePageStylesheet.
func MultiPageStylesheet() (*xslt.Stylesheet, error) {
	multiOnce.Do(func() {
		multiXSLT, multiErr = xslt.CompileStylesheetString(MultiXSL, xslt.CompileOptions{})
	})
	return multiXSLT, multiErr
}
