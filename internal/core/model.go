// Package core implements the paper's contribution: the object-oriented
// conceptual multidimensional (MD) metamodel ("GOLD model" of Trujillo et
// al.) together with its XML representation, the canonical XML Schema that
// validates model documents, and the XSLT stylesheets that publish models
// as navigable HTML presentations.
//
// The metamodel covers the structural MD properties of §2 of the paper —
// fact classes with measures, derived measures and degenerate dimensions
// ({OID} measures); shared aggregation relationships with multiplicities
// (many-to-many facts/dimensions); dimension classes whose classification-
// hierarchy levels (base classes) form a DAG rooted in the dimension
// class; strict/non-strict and complete hierarchies; categorization
// (specialization) levels; identifying {OID} and descriptor {D} attributes
// per level — and the dynamic part: cube classes with measures, slice and
// dice sections plus OLAP operations (executed by the olap package).
package core

import (
	"fmt"
	"time"
)

// Multiplicity is a UML role multiplicity as used by the schema's
// Multiplicity simple type.
type Multiplicity string

// The four multiplicities of the paper's XML Schema.
const (
	Mult0  Multiplicity = "0"
	Mult1  Multiplicity = "1"
	MultM  Multiplicity = "M"
	Mult1M Multiplicity = "1..M"
)

// Valid reports whether m is one of the schema's enumerated values.
func (m Multiplicity) Valid() bool {
	switch m {
	case Mult0, Mult1, MultM, Mult1M:
		return true
	}
	return false
}

// Many reports whether the multiplicity admits more than one instance.
func (m Multiplicity) Many() bool { return m == MultM || m == Mult1M }

// Operator is a slice (filter) comparison operator, matching the schema's
// Operator simple type.
type Operator string

// The ten operators of the paper's XML Schema.
const (
	OpEQ      Operator = "EQ"
	OpLT      Operator = "LT"
	OpGT      Operator = "GT"
	OpLET     Operator = "LET"
	OpGET     Operator = "GET"
	OpNOTEQ   Operator = "NOTEQ"
	OpLIKE    Operator = "LIKE"
	OpNOTLIKE Operator = "NOTLIKE"
	OpIN      Operator = "IN"
	OpNOTIN   Operator = "NOTIN"
)

// Valid reports whether o is one of the schema's enumerated operators.
func (o Operator) Valid() bool {
	switch o {
	case OpEQ, OpLT, OpGT, OpLET, OpGET, OpNOTEQ, OpLIKE, OpNOTLIKE, OpIN, OpNOTIN:
		return true
	}
	return false
}

// Model is a complete conceptual multidimensional model: the root
// goldmodel element of the XML representation.
type Model struct {
	ID           string
	Name         string
	ShowAtts     bool // presentation flag: render attribute compartments
	ShowMethods  bool // presentation flag: render method compartments
	CreationDate time.Time
	LastModified time.Time
	Description  string
	Responsible  string

	Facts []*FactClass
	Dims  []*DimClass
	Cubes []*CubeClass
}

// FactClass is a fact class: the composite class of a shared-aggregation
// star, carrying measures (fact attributes) and the aggregation
// relationships to its dimensions.
type FactClass struct {
	ID          string
	Name        string
	Caption     string
	Description string

	Atts       []*FactAtt
	Methods    []*Method
	SharedAggs []*SharedAgg
}

// FactAtt is a measure of a fact class. A fact class may have none
// (fact-less fact tables).
type FactAtt struct {
	ID   string
	Name string
	Type string // conceptual data type, e.g. "Integer", "Currency"
	// IsOID marks an identifying attribute ({OID}); such measures model
	// degenerate dimensions (e.g. ticket and line numbers).
	IsOID bool
	// IsDerived marks a derived measure (prefixed "/" in UML);
	// DerivationRule holds its rule.
	IsDerived      bool
	DerivationRule string
	// IsAtomic distinguishes atomic measures from compound ones.
	IsAtomic    bool
	Description string
	// Additivity holds the per-dimension additivity rules; a measure
	// without rules is fully additive along every dimension (the paper's
	// default).
	Additivity []*AdditivityRule
}

// AdditivityRule states how (or that) a measure may be aggregated along
// one dimension.
type AdditivityRule struct {
	DimClass string // reference to a DimClass.ID
	IsNot    bool   // not additive at all along this dimension
	IsSUM    bool
	IsMAX    bool
	IsMIN    bool
	IsAVG    bool
	IsCOUNT  bool
}

// Allows reports whether the named aggregation operator is permitted by
// the rule.
func (r *AdditivityRule) Allows(op string) bool {
	if r.IsNot {
		return false
	}
	switch op {
	case "SUM":
		return r.IsSUM
	case "MAX":
		return r.IsMAX
	case "MIN":
		return r.IsMIN
	case "AVG":
		return r.IsAVG
	case "COUNT":
		return r.IsCOUNT
	}
	return false
}

// SharedAgg is a shared-aggregation relationship between a fact class and
// a dimension class. RoleA is the fact-side multiplicity and RoleB the
// dimension-side one; RoleA=M with RoleB=M expresses a many-to-many
// relationship between facts and that dimension.
type SharedAgg struct {
	DimClass    string // reference to a DimClass.ID
	Name        string
	Description string
	RoleA       Multiplicity // default M
	RoleB       Multiplicity // default 1
}

// ManyToMany reports whether the aggregation is many-to-many.
func (a *SharedAgg) ManyToMany() bool { return a.RoleA.Many() && a.RoleB.Many() }

// DimClass is a dimension class: the root of a classification-hierarchy
// DAG ({dag} constraint) whose nodes are Levels.
type DimClass struct {
	ID          string
	Name        string
	Caption     string
	Description string
	IsTime      bool // marks the time dimension

	// Atts are the attributes of the dimension's terminal (root) level.
	Atts    []*DimAtt
	Methods []*Method
	// Levels are the classification hierarchy levels (base classes).
	Levels []*Level
	// Associations are the hierarchy edges leaving the dimension class
	// itself (the DAG root); further edges hang off the levels.
	Associations []*Association
	// CatLevels are categorization (generalization/specialization) levels
	// modeling additional features of an entity's subtypes.
	CatLevels []*CatLevel
}

// Level is a classification hierarchy level — a base class in the paper's
// terms. Every level needs an identifying {OID} and a descriptor {D}
// attribute, required by the export into commercial OLAP tools.
type Level struct {
	ID          string
	Name        string
	Caption     string
	Description string

	Atts         []*DimAtt
	Methods      []*Method
	Associations []*Association
}

// Association is an association relationship between two hierarchy levels
// (or from the dimension class root to a level). RoleB multiplicity M on
// the child role expresses non-strictness; Completeness marks a complete
// classification (hierarchies are non-complete by default).
type Association struct {
	Child        string // reference to a Level.ID
	Name         string
	Description  string
	RoleA        Multiplicity // default 1
	RoleB        Multiplicity // default M
	Completeness bool
}

// NonStrict reports whether the association allows a child member to roll
// up to several parents (both roles many).
func (a *Association) NonStrict() bool { return a.RoleA.Many() }

// DimAtt is a dimension attribute. IsOID marks the identifying attribute
// ({OID}); IsD marks the descriptor ({D}).
type DimAtt struct {
	ID          string
	Name        string
	Type        string
	IsOID       bool
	IsD         bool
	Description string
}

// CatLevel is a categorization (specialization) level of a dimension.
type CatLevel struct {
	ID          string
	Name        string
	Description string
	Atts        []*DimAtt
}

// Method is an operation of a class, kept for completeness of the UML
// notation (the CASE tool displays method compartments).
type Method struct {
	ID          string
	Name        string
	Signature   string
	Description string
}

// CubeClass is the dynamic part of the model: an initial user requirement
// structured into measures, slice and dice sections, later refined with
// OLAP operations.
type CubeClass struct {
	ID          string
	Name        string
	Description string
	Fact        string // reference to a FactClass.ID

	Measures []string // references to FactAtt.IDs of the fact class
	Slices   []*Slice
	Dices    []*Dice
}

// Slice is one filter condition of a cube class.
type Slice struct {
	Att      string // reference to a DimAtt.ID or FactAtt.ID
	Operator Operator
	Value    string
}

// Dice is one grouping condition of a cube class: group by the given
// hierarchy level of a dimension (empty Level = the dimension's terminal
// level).
type Dice struct {
	DimClass string // reference to a DimClass.ID
	Level    string // reference to a Level.ID, optional
}

// ---- lookup helpers ----

// Fact returns the fact class with the given id, or nil.
func (m *Model) Fact(id string) *FactClass {
	for _, f := range m.Facts {
		if f.ID == id {
			return f
		}
	}
	return nil
}

// FactByName returns the fact class with the given name, or nil.
func (m *Model) FactByName(name string) *FactClass {
	for _, f := range m.Facts {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Dim returns the dimension class with the given id, or nil.
func (m *Model) Dim(id string) *DimClass {
	for _, d := range m.Dims {
		if d.ID == id {
			return d
		}
	}
	return nil
}

// DimByName returns the dimension class with the given name, or nil.
func (m *Model) DimByName(name string) *DimClass {
	for _, d := range m.Dims {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// Cube returns the cube class with the given id, or nil.
func (m *Model) Cube(id string) *CubeClass {
	for _, c := range m.Cubes {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// Att returns the measure with the given id, or nil.
func (f *FactClass) Att(id string) *FactAtt {
	for _, a := range f.Atts {
		if a.ID == id {
			return a
		}
	}
	return nil
}

// AttByName returns the measure with the given name, or nil.
func (f *FactClass) AttByName(name string) *FactAtt {
	for _, a := range f.Atts {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Agg returns the shared aggregation pointing at the given dimension id,
// or nil.
func (f *FactClass) Agg(dimID string) *SharedAgg {
	for _, a := range f.SharedAggs {
		if a.DimClass == dimID {
			return a
		}
	}
	return nil
}

// AdditivityFor returns the measure's additivity rule along the given
// dimension, or nil when the measure is fully additive there.
func (a *FactAtt) AdditivityFor(dimID string) *AdditivityRule {
	for _, r := range a.Additivity {
		if r.DimClass == dimID {
			return r
		}
	}
	return nil
}

// Level returns the hierarchy level with the given id, or nil.
func (d *DimClass) Level(id string) *Level {
	for _, l := range d.Levels {
		if l.ID == id {
			return l
		}
	}
	return nil
}

// LevelByName returns the hierarchy level with the given name, or nil.
func (d *DimClass) LevelByName(name string) *Level {
	for _, l := range d.Levels {
		if l.Name == name {
			return l
		}
	}
	return nil
}

// Roots returns the level ids directly associated with the dimension
// class (the first hierarchy levels above the terminal level).
func (d *DimClass) Roots() []string {
	out := make([]string, 0, len(d.Associations))
	for _, a := range d.Associations {
		out = append(out, a.Child)
	}
	return out
}

// String implements fmt.Stringer with a compact synopsis.
func (m *Model) String() string {
	return fmt.Sprintf("Model(%s: %d facts, %d dims, %d cubes)", m.Name, len(m.Facts), len(m.Dims), len(m.Cubes))
}
