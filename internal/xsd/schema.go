// Package xsd implements an XML Schema (W3C 2001) validator subset
// sufficient for the paper's multidimensional-model schema and schemas of
// similar shape: global and inline element declarations (both the
// "Russian doll" and flat schema styles of §3.1 of the paper), complex
// types with sequence/choice content models and occurrence bounds,
// attributes with required/optional/default/fixed, named simple types
// derived by restriction (enumeration, pattern, length and range facets),
// the common built-in types, ID/IDREF integrity, and key/keyref/unique
// identity constraints with XPath selectors and fields.
//
// It plays the role Apache Xerces played in the original system; the
// CheckSchema meta-validator mirrors the IBM XML Schema Quality Checker
// step the authors describe.
package xsd

import (
	"fmt"
	"regexp"
	"strings"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

// Namespace is the XML Schema namespace URI.
const Namespace = "http://www.w3.org/2001/XMLSchema"

// Schema is a compiled schema ready to validate instance documents. A
// Schema may be the compilation of a single document (ParseSchema) or of
// a whole xs:import/xs:include graph (Loader): every included document
// contributes its global declarations to the same maps.
type Schema struct {
	// Elements holds the global element declarations by name.
	Elements map[string]*ElementDecl
	// SimpleTypes and ComplexTypes hold the named type definitions.
	SimpleTypes  map[string]*SimpleType
	ComplexTypes map[string]*ComplexType

	// substMembers maps a substitution-group head to its transitive
	// member declarations (sorted by name), computed during resolve.
	substMembers map[string][]*ElementDecl

	// fileByDoc maps each contributing document root to its location,
	// giving resolve-phase errors per-file provenance.
	fileByDoc map[*xmldom.Node]string

	doc *xmldom.Node
}

// ElementDecl describes an element declaration.
type ElementDecl struct {
	Name                 string
	TypeName             string       // non-empty when the type is referenced by name
	Simple               *SimpleType  // inline or resolved simple type
	Complex              *ComplexType // inline or resolved complex type
	Default              string
	Fixed                string
	HasDefault, HasFixed bool
	Constraints          []*IdentityConstraint

	// SubstitutionGroup names the head element this (global) declaration
	// may substitute for; Abstract heads cannot appear in instances
	// themselves.
	SubstitutionGroup string
	Abstract          bool

	src *xmldom.Node
}

// ComplexType describes a complex type: a content particle plus
// attributes.
type ComplexType struct {
	Name       string
	Content    *Particle // nil means empty content
	Attributes []*AttributeDecl
	// AnyAttr is the xs:anyAttribute wildcard, when declared: the
	// element admits undeclared attributes matching its namespace
	// constraint.
	AnyAttr *Wildcard
	Mixed   bool

	// attrs indexes Attributes by name, built as the type is parsed.
	attrs map[string]*AttributeDecl

	src *xmldom.Node
}

// ParticleKind distinguishes content-model particles.
type ParticleKind uint8

// Particle kinds.
const (
	PSequence ParticleKind = iota + 1
	PChoice
	PAll
	PElement
	// PAny is an xs:any wildcard particle.
	PAny
)

// Unbounded is the MaxOccurs value for maxOccurs="unbounded".
const Unbounded = -1

// Particle is a node of a content model: a sequence, choice, all group,
// element or wildcard particle, with occurrence bounds.
type Particle struct {
	Kind     ParticleKind
	Min, Max int // Max == Unbounded for unbounded
	Children []*Particle
	Elem     *ElementDecl
	// Ref is the referenced global element name for ref="..." particles
	// (Elem is linked to the global declaration during resolve).
	// Substitution-group dispatch applies only to ref particles, per the
	// XML Schema rules.
	Ref string
	// Wildcard carries the xs:any constraint for PAny particles.
	Wildcard *Wildcard

	src *xmldom.Node
}

// Wildcard is the namespace constraint and process mode of an xs:any or
// xs:anyAttribute declaration.
type Wildcard struct {
	// NS is the raw namespace constraint: "##any", "##other", "##local",
	// "##targetNamespace", or a space-separated URI list.
	NS string
	// Process is the processContents mode: "strict", "lax" or "skip".
	Process string

	src *xmldom.Node
}

// Admits reports whether the wildcard's namespace constraint admits a
// node in namespace uri. The schemas this system compiles have no
// targetNamespace, so ##targetNamespace and ##local both mean the empty
// namespace and ##other means any non-empty one.
func (w *Wildcard) Admits(uri string) bool {
	switch w.NS {
	case "", "##any":
		return true
	case "##other":
		return uri != ""
	case "##local", "##targetNamespace":
		return uri == ""
	}
	for _, tok := range strings.Fields(w.NS) {
		if tok == "##local" || tok == "##targetNamespace" {
			tok = ""
		}
		if tok == uri {
			return true
		}
	}
	return false
}

// AttributeDecl describes an attribute declaration.
type AttributeDecl struct {
	Name                 string
	TypeName             string
	Type                 *SimpleType // resolved or inline
	Use                  string      // "optional" (default), "required", "prohibited"
	Default              string
	Fixed                string
	HasDefault, HasFixed bool

	src *xmldom.Node
}

// SimpleType describes a simple type: a built-in, a restriction of one,
// a list over an item type, or a union of member types.
type SimpleType struct {
	Name    string
	Base    string // name of the base type (restrictions only)
	builtin builtinKind

	// Item is the list item type for xs:list varieties; Members are the
	// xs:union member types (memberTypes references resolved first, then
	// inline simpleType children, in declaration order).
	Item    *SimpleType
	Members []*SimpleType

	Enum           []string
	Patterns       []*regexp.Regexp
	patternSrcs    []string
	Length         *int
	MinLength      *int
	MaxLength      *int
	TotalDigits    *int
	FractionDigits *int
	MinInclusive   *float64
	MaxInclusive   *float64
	MinExclusive   *float64
	MaxExclusive   *float64
	WhiteSpace     string // "", "preserve", "replace", "collapse"

	// itemRef / memberRefs are unresolved QName references from
	// itemType= / memberTypes=, linked during resolve.
	itemRef    string
	memberRefs []string

	base *SimpleType // resolved base (nil for builtins)
	src  *xmldom.Node
}

// ConstraintKind distinguishes identity constraints.
type ConstraintKind uint8

// Identity constraint kinds.
const (
	KeyConstraint ConstraintKind = iota + 1
	UniqueConstraint
	KeyrefConstraint
)

func (k ConstraintKind) String() string {
	switch k {
	case KeyConstraint:
		return "key"
	case UniqueConstraint:
		return "unique"
	case KeyrefConstraint:
		return "keyref"
	}
	return "?"
}

// IdentityConstraint is an xsd:key, xsd:unique or xsd:keyref declared on an
// element.
type IdentityConstraint struct {
	Kind     ConstraintKind
	Name     string
	Refer    string // for keyref: the referred key/unique name
	Selector *xpath.Compiled
	Fields   []*xpath.Compiled

	selectorSrc string
	fieldSrcs   []string
	// fieldAttrs holds, per field, the attribute name of a bare "@name"
	// field ("" for any other expression).
	fieldAttrs []string
	src        *xmldom.Node
}

// SchemaError reports a problem in a schema document. File names the
// source document when the schema was assembled by a Loader, so errors
// in multi-file import/include graphs are attributable.
type SchemaError struct {
	File string
	Node *xmldom.Node
	Msg  string
}

func (e *SchemaError) Error() string {
	in := ""
	if e.File != "" {
		in = " in " + e.File
	}
	if e.Node != nil {
		return fmt.Sprintf("xsd: %s (at %s%s, line %d)", e.Msg, e.Node.Path(), in, e.Node.Line)
	}
	return "xsd: " + e.Msg + in
}

// Line returns the schema-document line the error points at (0 when
// unknown), for diagnostic positioning.
func (e *SchemaError) Line() int {
	if e.Node != nil {
		return e.Node.Line
	}
	return 0
}

// ValidationError reports one instance-document violation.
type ValidationError struct {
	Path string // instance path of the offending node
	Line int
	Msg  string

	// Identity is the detail of a key, unique or keyref violation; it is
	// nil for a structural or type error.
	Identity *IdentityViolation
}

// IdentityViolation is what the validator knew when it reported an
// identity-constraint error, so consumers can word the error without
// evaluating the constraint again. Every node belongs to the validated
// document.
type IdentityViolation struct {
	// Constraint is the violated constraint and Scope the element whose
	// declaration carries it.
	Constraint *IdentityConstraint
	Scope      *xmldom.Node
	// Node is the selected node the error is about (Scope itself for a
	// failing selector or a keyref to an unknown key), and Tuple its
	// field values joined by U+001F ("" when a field is absent).
	Node  *xmldom.Node
	Tuple string
	// First is, for a duplicate value, the node first selected with it.
	First *xmldom.Node
	// Key and Keys are, for a keyref value that matches no key, the
	// referred key or unique constraint and its non-empty tuples in the
	// scope.
	Key  *IdentityConstraint
	Keys map[string]bool
}

func (e ValidationError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("%s (line %d): %s", e.Path, e.Line, e.Msg)
	}
	return fmt.Sprintf("%s: %s", e.Path, e.Msg)
}
