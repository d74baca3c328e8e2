package core

import (
	"fmt"
	"strings"
)

// SemanticError is one violation of the metamodel's well-formedness rules
// (the constraints the paper attaches to the UML notation: {dag}, {OID},
// {D}, additivity rules, valid references).
type SemanticError struct {
	Where string // dotted location, e.g. "fact Sales/measure qty"
	Msg   string
}

func (e SemanticError) Error() string { return e.Where + ": " + e.Msg }

// Validate checks the model's semantic constraints and returns every
// violation (nil means the model is well-formed). These checks complement
// XML Schema validation: they cover rules a grammar cannot express, such
// as the {dag} constraint on classification hierarchies.
func (m *Model) Validate() []SemanticError {
	v := &semChecker{ids: map[string]string{}}
	if m.ID == "" {
		v.add("model", "missing id")
	}
	if m.Name == "" {
		v.add("model", "missing name")
	}
	v.trackID(m.ID, "model")
	if !m.CreationDate.IsZero() && !m.LastModified.IsZero() && m.LastModified.Before(m.CreationDate) {
		v.add("model "+m.Name, "lastModified precedes creationDate")
	}
	dimIDs := map[string]*DimClass{}
	for _, d := range m.Dims {
		if d.ID != "" {
			dimIDs[d.ID] = d
		}
	}
	for _, f := range m.Facts {
		v.checkFact(f, dimIDs)
	}
	for _, d := range m.Dims {
		v.checkDim(d)
	}
	for _, c := range m.Cubes {
		v.checkCube(m, c)
	}
	return v.errs
}

type semChecker struct {
	errs []SemanticError
	ids  map[string]string // id → where first seen
}

func (v *semChecker) add(where, format string, args ...interface{}) {
	v.errs = append(v.errs, SemanticError{Where: where, Msg: fmt.Sprintf(format, args...)})
}

func (v *semChecker) trackID(id, where string) {
	if id == "" {
		v.add(where, "missing id")
		return
	}
	if prev, dup := v.ids[id]; dup {
		v.add(where, "duplicate id %q (also used by %s)", id, prev)
		return
	}
	v.ids[id] = where
}

func (v *semChecker) checkFact(f *FactClass, dims map[string]*DimClass) {
	where := "fact " + nameOrID(f.Name, f.ID)
	v.trackID(f.ID, where)
	if f.Name == "" {
		v.add(where, "missing name")
	}
	aggregated := map[string]bool{}
	for _, agg := range f.SharedAggs {
		aw := where + "/sharedagg → " + agg.DimClass
		if agg.DimClass == "" {
			v.add(aw, "missing dimclass reference")
			continue
		}
		if _, ok := dims[agg.DimClass]; !ok {
			v.add(aw, "references unknown dimension class %q", agg.DimClass)
		}
		if aggregated[agg.DimClass] {
			v.add(aw, "duplicate shared aggregation to dimension %q", agg.DimClass)
		}
		aggregated[agg.DimClass] = true
		if agg.RoleA != "" && !agg.RoleA.Valid() {
			v.add(aw, "invalid roleA multiplicity %q", agg.RoleA)
		}
		if agg.RoleB != "" && !agg.RoleB.Valid() {
			v.add(aw, "invalid roleB multiplicity %q", agg.RoleB)
		}
	}
	for _, a := range f.Atts {
		mw := where + "/measure " + nameOrID(a.Name, a.ID)
		v.trackID(a.ID, mw)
		if a.Name == "" {
			v.add(mw, "missing name")
		}
		if a.IsDerived && a.DerivationRule == "" {
			v.add(mw, "derived measure without a derivation rule")
		}
		if !a.IsDerived && a.DerivationRule != "" {
			v.add(mw, "derivation rule on a non-derived measure")
		}
		seen := map[string]bool{}
		for _, r := range a.Additivity {
			rw := mw + "/additivity → " + r.DimClass
			if r.DimClass == "" {
				v.add(rw, "missing dimclass reference")
				continue
			}
			if !aggregated[r.DimClass] {
				v.add(rw, "additivity rule along %q, which the fact class does not aggregate", r.DimClass)
			}
			if seen[r.DimClass] {
				v.add(rw, "duplicate additivity rule for dimension %q", r.DimClass)
			}
			seen[r.DimClass] = true
			anyOp := r.IsSUM || r.IsMAX || r.IsMIN || r.IsAVG || r.IsCOUNT
			if r.IsNot && anyOp {
				v.add(rw, "isnot excludes the aggregation operators")
			}
			if !r.IsNot && !anyOp {
				v.add(rw, "rule allows no aggregation operator and is not marked isnot")
			}
		}
	}
	for _, meth := range f.Methods {
		v.trackID(meth.ID, where+"/method "+nameOrID(meth.Name, meth.ID))
	}
}

func (v *semChecker) checkDim(d *DimClass) {
	where := "dimension " + nameOrID(d.Name, d.ID)
	v.trackID(d.ID, where)
	if d.Name == "" {
		v.add(where, "missing name")
	}
	levels := map[string]*Level{}
	for _, l := range d.Levels {
		lw := where + "/level " + nameOrID(l.Name, l.ID)
		v.trackID(l.ID, lw)
		if l.ID != "" {
			levels[l.ID] = l
		}
		if l.Name == "" {
			v.add(lw, "missing name")
		}
		v.checkDimAtts(lw, l.Atts, true)
		for _, meth := range l.Methods {
			v.trackID(meth.ID, lw+"/method "+nameOrID(meth.Name, meth.ID))
		}
	}
	v.checkDimAtts(where, d.Atts, false)
	for _, cl := range d.CatLevels {
		cw := where + "/catlevel " + nameOrID(cl.Name, cl.ID)
		v.trackID(cl.ID, cw)
		v.checkDimAtts(cw, cl.Atts, false)
	}
	for _, meth := range d.Methods {
		v.trackID(meth.ID, where+"/method "+nameOrID(meth.Name, meth.ID))
	}

	// {dag}: every association child resolves, every level is reachable
	// from the dimension class, and the graph is acyclic.
	checkEdges := func(from string, edges []*Association) {
		for _, e := range edges {
			ew := where + "/" + from + " → " + e.Child
			if e.Child == "" {
				v.add(ew, "association without a child level")
				continue
			}
			if _, ok := levels[e.Child]; !ok {
				v.add(ew, "association references unknown level %q", e.Child)
			}
			if e.RoleA != "" && !e.RoleA.Valid() {
				v.add(ew, "invalid roleA multiplicity %q", e.RoleA)
			}
			if e.RoleB != "" && !e.RoleB.Valid() {
				v.add(ew, "invalid roleB multiplicity %q", e.RoleB)
			}
		}
	}
	checkEdges("root", d.Associations)
	for _, l := range d.Levels {
		checkEdges("level "+nameOrID(l.Name, l.ID), l.Associations)
	}

	// Reachability and cycle detection over level ids.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(id string, path []string)
	visit = func(id string, path []string) {
		l, ok := levels[id]
		if !ok {
			return
		}
		switch color[id] {
		case grey:
			v.add(where, "{dag} violated: cycle through level %q (path %s)", id, strings.Join(append(path, id), " → "))
			return
		case black:
			return
		}
		color[id] = grey
		for _, e := range l.Associations {
			visit(e.Child, append(path, id))
		}
		color[id] = black
	}
	for _, e := range d.Associations {
		visit(e.Child, []string{"<" + nameOrID(d.Name, d.ID) + ">"})
	}
	for _, l := range d.Levels {
		if l.ID != "" && color[l.ID] == white {
			v.add(where+"/level "+nameOrID(l.Name, l.ID),
				"{dag} violated: level not reachable from the dimension class")
		}
	}
}

// checkDimAtts verifies the {OID}/{D} attribute constraints. Hierarchy
// levels require exactly one of each (needed by the OLAP export, §2);
// other attribute sets only forbid duplicates.
func (v *semChecker) checkDimAtts(where string, atts []*DimAtt, isLevel bool) {
	oids, ds := 0, 0
	for _, a := range atts {
		aw := where + "/att " + nameOrID(a.Name, a.ID)
		v.trackID(a.ID, aw)
		if a.Name == "" {
			v.add(aw, "missing name")
		}
		if a.IsOID {
			oids++
		}
		if a.IsD {
			ds++
		}
		if a.IsOID && a.IsD {
			v.add(aw, "attribute cannot be both {OID} and {D}")
		}
	}
	if isLevel {
		if oids != 1 {
			v.add(where, "hierarchy level must have exactly one {OID} attribute, found %d", oids)
		}
		if ds != 1 {
			v.add(where, "hierarchy level must have exactly one {D} attribute, found %d", ds)
		}
	} else {
		if oids > 1 {
			v.add(where, "more than one {OID} attribute")
		}
		if ds > 1 {
			v.add(where, "more than one {D} attribute")
		}
	}
}

func (v *semChecker) checkCube(m *Model, c *CubeClass) {
	where := "cube " + nameOrID(c.Name, c.ID)
	v.trackID(c.ID, where)
	fact := m.Fact(c.Fact)
	if fact == nil {
		v.add(where, "references unknown fact class %q", c.Fact)
		return
	}
	if len(c.Measures) == 0 {
		v.add(where, "cube class declares no measures")
	}
	for _, mid := range c.Measures {
		if fact.Att(mid) == nil {
			v.add(where, "measure %q is not an attribute of fact class %s", mid, fact.Name)
		}
	}
	// Attribute ids usable in slices: the fact's own attributes plus every
	// dimension attribute of the aggregated dimensions.
	attOK := map[string]bool{}
	for _, a := range fact.Atts {
		attOK[a.ID] = true
	}
	for _, agg := range fact.SharedAggs {
		d := m.Dim(agg.DimClass)
		if d == nil {
			continue
		}
		for _, a := range d.Atts {
			attOK[a.ID] = true
		}
		for _, l := range d.Levels {
			for _, a := range l.Atts {
				attOK[a.ID] = true
			}
		}
	}
	for _, s := range c.Slices {
		sw := where + "/slice " + s.Att
		if !attOK[s.Att] {
			v.add(sw, "slice attribute %q is not reachable from fact class %s", s.Att, fact.Name)
		}
		if !s.Operator.Valid() {
			v.add(sw, "invalid operator %q", string(s.Operator))
		}
	}
	for _, dice := range c.Dices {
		dw := where + "/dice " + dice.DimClass
		if fact.Agg(dice.DimClass) == nil {
			v.add(dw, "dice dimension %q is not aggregated by fact class %s", dice.DimClass, fact.Name)
			continue
		}
		if dice.Level != "" {
			d := m.Dim(dice.DimClass)
			if d != nil && d.Level(dice.Level) == nil {
				v.add(dw, "dice level %q is not a level of dimension %s", dice.Level, d.Name)
			}
		}
	}
}

func nameOrID(name, id string) string {
	if name != "" {
		return name
	}
	if id != "" {
		return id
	}
	return "(unnamed)"
}
