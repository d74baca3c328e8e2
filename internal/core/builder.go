package core

import (
	"fmt"
	"time"
)

// ModelBuilder constructs well-formed models programmatically, playing
// the role of the paper's CASE tool editor. Classes are referenced by
// name while building; Build resolves the names to ids and runs the
// semantic validator.
type ModelBuilder struct {
	m    *Model
	seq  map[string]int
	errs []error

	facts []*factBuild
	dims  []*dimBuild
	cubes []*cubeBuild
}

// NewModel starts a model with the given name.
func NewModel(name string) *ModelBuilder {
	b := &ModelBuilder{
		m:   &Model{Name: name, ShowAtts: true, ShowMethods: true},
		seq: map[string]int{},
	}
	b.m.ID = b.nextID("m")
	return b
}

func (b *ModelBuilder) nextID(prefix string) string {
	b.seq[prefix]++
	return fmt.Sprintf("%s%d", prefix, b.seq[prefix])
}

func (b *ModelBuilder) errf(format string, args ...interface{}) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Created sets the creation date.
func (b *ModelBuilder) Created(t time.Time) *ModelBuilder {
	b.m.CreationDate = t
	return b
}

// Modified sets the last-modified date.
func (b *ModelBuilder) Modified(t time.Time) *ModelBuilder {
	b.m.LastModified = t
	return b
}

// Describe sets the model description.
func (b *ModelBuilder) Describe(s string) *ModelBuilder {
	b.m.Description = s
	return b
}

// Responsible sets the person responsible for the model.
func (b *ModelBuilder) Responsible(s string) *ModelBuilder {
	b.m.Responsible = s
	return b
}

// ---- fact classes ----

type factBuild struct {
	f    *FactClass
	aggs []*aggBuild // dimension references by name
}

type aggBuild struct {
	agg     *SharedAgg
	dimName string
}

// FactBuilder builds one fact class.
type FactBuilder struct {
	b  *ModelBuilder
	fb *factBuild
}

// Fact adds a fact class.
func (b *ModelBuilder) Fact(name string) *FactBuilder {
	f := &FactClass{ID: b.nextID("f"), Name: name}
	fb := &factBuild{f: f}
	b.facts = append(b.facts, fb)
	b.m.Facts = append(b.m.Facts, f)
	return &FactBuilder{b: b, fb: fb}
}

// Describe sets the fact class description.
func (fb *FactBuilder) Describe(s string) *FactBuilder {
	fb.fb.f.Description = s
	return fb
}

// Method adds an operation to the fact class.
func (fb *FactBuilder) Method(name, signature string) *FactBuilder {
	fb.fb.f.Methods = append(fb.fb.f.Methods, &Method{
		ID: fb.b.nextID("mt"), Name: name, Signature: signature})
	return fb
}

// Aggregates adds a shared aggregation to the named dimension with the
// default multiplicities (fact side M, dimension side 1).
func (fb *FactBuilder) Aggregates(dimName string) *FactBuilder {
	return fb.AggregatesRoles(dimName, MultM, Mult1)
}

// AggregatesMany adds a many-to-many shared aggregation (both roles M),
// the paper's treatment of many-to-many relationships between facts and a
// particular dimension.
func (fb *FactBuilder) AggregatesMany(dimName string) *FactBuilder {
	return fb.AggregatesRoles(dimName, MultM, MultM)
}

// AggregatesRoles adds a shared aggregation with explicit multiplicities.
func (fb *FactBuilder) AggregatesRoles(dimName string, roleA, roleB Multiplicity) *FactBuilder {
	fb.fb.aggs = append(fb.fb.aggs, &aggBuild{
		agg:     &SharedAgg{RoleA: roleA, RoleB: roleB},
		dimName: dimName,
	})
	return fb
}

// MeasureBuilder refines one measure.
type MeasureBuilder struct {
	fb *FactBuilder
	a  *FactAtt
}

// Measure adds a measure (fact attribute) with a conceptual type.
func (fb *FactBuilder) Measure(name, typ string) *MeasureBuilder {
	a := &FactAtt{ID: fb.b.nextID("fa"), Name: name, Type: typ, IsAtomic: true}
	fb.fb.f.Atts = append(fb.fb.f.Atts, a)
	return &MeasureBuilder{fb: fb, a: a}
}

// OID marks the measure as identifying ({OID}), modeling a degenerate
// dimension.
func (mb *MeasureBuilder) OID() *MeasureBuilder {
	mb.a.IsOID = true
	return mb
}

// Derived marks the measure as derived with the given rule.
func (mb *MeasureBuilder) Derived(rule string) *MeasureBuilder {
	mb.a.IsDerived = true
	mb.a.DerivationRule = rule
	return mb
}

// Describe sets the measure description.
func (mb *MeasureBuilder) Describe(s string) *MeasureBuilder {
	mb.a.Description = s
	return mb
}

// Additive declares the aggregation operators allowed along the named
// dimension (SUM, MAX, MIN, AVG, COUNT).
func (mb *MeasureBuilder) Additive(dimName string, ops ...string) *MeasureBuilder {
	r := &AdditivityRule{DimClass: dimName} // name; resolved at Build
	for _, op := range ops {
		switch op {
		case "SUM":
			r.IsSUM = true
		case "MAX":
			r.IsMAX = true
		case "MIN":
			r.IsMIN = true
		case "AVG":
			r.IsAVG = true
		case "COUNT":
			r.IsCOUNT = true
		default:
			mb.fb.b.errf("measure %s: unknown aggregation operator %q", mb.a.Name, op)
		}
	}
	mb.a.Additivity = append(mb.a.Additivity, r)
	return mb
}

// NotAdditive declares the measure non-additive along the named dimension.
func (mb *MeasureBuilder) NotAdditive(dimName string) *MeasureBuilder {
	mb.a.Additivity = append(mb.a.Additivity, &AdditivityRule{DimClass: dimName, IsNot: true})
	return mb
}

// ---- dimension classes ----

type dimBuild struct {
	d *DimClass
}

// DimBuilder builds one dimension class.
type DimBuilder struct {
	b  *ModelBuilder
	db *dimBuild
}

// Dimension adds a dimension class.
func (b *ModelBuilder) Dimension(name string) *DimBuilder {
	d := &DimClass{ID: b.nextID("d"), Name: name}
	db := &dimBuild{d: d}
	b.dims = append(b.dims, db)
	b.m.Dims = append(b.m.Dims, d)
	return &DimBuilder{b: b, db: db}
}

// TimeDimension adds a dimension class flagged as the time dimension.
func (b *ModelBuilder) TimeDimension(name string) *DimBuilder {
	db := b.Dimension(name)
	db.db.d.IsTime = true
	return db
}

// Describe sets the dimension description.
func (db *DimBuilder) Describe(s string) *DimBuilder {
	db.db.d.Description = s
	return db
}

// Attr adds a plain attribute to the dimension's terminal level.
func (db *DimBuilder) Attr(name, typ string) *DimBuilder {
	db.db.d.Atts = append(db.db.d.Atts, &DimAtt{ID: db.b.nextID("da"), Name: name, Type: typ})
	return db
}

// Key adds the identifying {OID} attribute of the terminal level.
func (db *DimBuilder) Key(name, typ string) *DimBuilder {
	db.db.d.Atts = append(db.db.d.Atts, &DimAtt{ID: db.b.nextID("da"), Name: name, Type: typ, IsOID: true})
	return db
}

// Descriptor adds the descriptor {D} attribute of the terminal level.
func (db *DimBuilder) Descriptor(name, typ string) *DimBuilder {
	db.db.d.Atts = append(db.db.d.Atts, &DimAtt{ID: db.b.nextID("da"), Name: name, Type: typ, IsD: true})
	return db
}

// Method adds an operation to the dimension class.
func (db *DimBuilder) Method(name, signature string) *DimBuilder {
	db.db.d.Methods = append(db.db.d.Methods, &Method{
		ID: db.b.nextID("mt"), Name: name, Signature: signature})
	return db
}

// Categorize adds a categorization (specialization) level.
func (db *DimBuilder) Categorize(name string, atts ...string) *DimBuilder {
	cl := &CatLevel{ID: db.b.nextID("cl"), Name: name}
	for _, a := range atts {
		cl.Atts = append(cl.Atts, &DimAtt{ID: db.b.nextID("da"), Name: a, Type: "String"})
	}
	db.db.d.CatLevels = append(db.db.d.CatLevels, cl)
	return db
}

// LevelBuilder builds one classification-hierarchy level.
type LevelBuilder struct {
	db *DimBuilder
	l  *Level
}

// Level adds a classification hierarchy level (base class) to the
// dimension.
func (db *DimBuilder) Level(name string) *LevelBuilder {
	l := &Level{ID: db.b.nextID("l"), Name: name}
	db.db.d.Levels = append(db.db.d.Levels, l)
	return &LevelBuilder{db: db, l: l}
}

// LevelRef returns a builder for an already-added level of this
// dimension, so hierarchy edges can be attached later; it panics when the
// level does not exist.
func (db *DimBuilder) LevelRef(name string) *LevelBuilder {
	for _, l := range db.db.d.Levels {
		if l.Name == name {
			return &LevelBuilder{db: db, l: l}
		}
	}
	panic(fmt.Sprintf("core: dimension %s has no level %q", db.db.d.Name, name))
}

// Key adds the level's identifying {OID} attribute.
func (lb *LevelBuilder) Key(name, typ string) *LevelBuilder {
	lb.l.Atts = append(lb.l.Atts, &DimAtt{ID: lb.db.b.nextID("da"), Name: name, Type: typ, IsOID: true})
	return lb
}

// Descriptor adds the level's descriptor {D} attribute.
func (lb *LevelBuilder) Descriptor(name, typ string) *LevelBuilder {
	lb.l.Atts = append(lb.l.Atts, &DimAtt{ID: lb.db.b.nextID("da"), Name: name, Type: typ, IsD: true})
	return lb
}

// Attr adds a plain attribute to the level.
func (lb *LevelBuilder) Attr(name, typ string) *LevelBuilder {
	lb.l.Atts = append(lb.l.Atts, &DimAtt{ID: lb.db.b.nextID("da"), Name: name, Type: typ})
	return lb
}

// AssocBuilder refines one association edge of the hierarchy DAG.
type AssocBuilder struct {
	b *ModelBuilder
	a *Association
}

// Rollup adds an association from the dimension class root to the named
// level (the first classification step above the terminal level).
func (db *DimBuilder) Rollup(childLevel string) *AssocBuilder {
	a := &Association{Child: childLevel, RoleA: Mult1, RoleB: MultM} // name; resolved at Build
	db.db.d.Associations = append(db.db.d.Associations, a)
	return &AssocBuilder{b: db.b, a: a}
}

// Rollup adds an association from this level to the named (higher) level.
func (lb *LevelBuilder) Rollup(childLevel string) *AssocBuilder {
	a := &Association{Child: childLevel, RoleA: Mult1, RoleB: MultM}
	lb.l.Associations = append(lb.l.Associations, a)
	return &AssocBuilder{b: lb.db.b, a: a}
}

// NonStrict marks the association non-strict (a member may roll up to
// several parents).
func (ab *AssocBuilder) NonStrict() *AssocBuilder {
	ab.a.RoleA = MultM
	return ab
}

// Complete marks the association complete ({completeness}).
func (ab *AssocBuilder) Complete() *AssocBuilder {
	ab.a.Completeness = true
	return ab
}

// ---- cube classes ----

type cubeBuild struct {
	c        *CubeClass
	factName string
	measures []string // measure names
	slices   []sliceBuild
	dices    []diceBuild
}

type sliceBuild struct {
	att   string
	op    Operator
	value string
}

type diceBuild struct {
	dim   string
	level string
}

// CubeBuilder builds one cube class (initial user requirement).
type CubeBuilder struct {
	b  *ModelBuilder
	cb *cubeBuild
}

// Cube adds a cube class over the named fact class.
func (b *ModelBuilder) Cube(name, factName string) *CubeBuilder {
	c := &CubeClass{ID: b.nextID("c"), Name: name}
	cb := &cubeBuild{c: c, factName: factName}
	b.cubes = append(b.cubes, cb)
	b.m.Cubes = append(b.m.Cubes, c)
	return &CubeBuilder{b: b, cb: cb}
}

// Describe sets the cube class description.
func (cb *CubeBuilder) Describe(s string) *CubeBuilder {
	cb.cb.c.Description = s
	return cb
}

// Measures selects fact measures by name.
func (cb *CubeBuilder) Measures(names ...string) *CubeBuilder {
	cb.cb.measures = append(cb.cb.measures, names...)
	return cb
}

// Slice adds a filter condition on the named attribute.
func (cb *CubeBuilder) Slice(attName string, op Operator, value string) *CubeBuilder {
	cb.cb.slices = append(cb.cb.slices, sliceBuild{att: attName, op: op, value: value})
	return cb
}

// Dice adds a grouping condition: group by the named hierarchy level of
// the named dimension (empty level = the terminal level).
func (cb *CubeBuilder) Dice(dimName, levelName string) *CubeBuilder {
	cb.cb.dices = append(cb.cb.dices, diceBuild{dim: dimName, level: levelName})
	return cb
}

// ---- assembly ----

// Build resolves all by-name references, validates the model semantically
// and returns it.
func (b *ModelBuilder) Build() (*Model, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	dimByName := map[string]*DimClass{}
	for _, db := range b.dims {
		if prev := dimByName[db.d.Name]; prev != nil {
			return nil, fmt.Errorf("core: duplicate dimension name %q", db.d.Name)
		}
		dimByName[db.d.Name] = db.d
	}
	resolveDim := func(name, where string) (string, error) {
		d, ok := dimByName[name]
		if !ok {
			return "", fmt.Errorf("core: %s references unknown dimension %q", where, name)
		}
		return d.ID, nil
	}
	for _, fb := range b.facts {
		for _, ab := range fb.aggs {
			id, err := resolveDim(ab.dimName, "fact "+fb.f.Name)
			if err != nil {
				return nil, err
			}
			ab.agg.DimClass = id
			fb.f.SharedAggs = append(fb.f.SharedAggs, ab.agg)
		}
		for _, a := range fb.f.Atts {
			for _, r := range a.Additivity {
				id, err := resolveDim(r.DimClass, "measure "+a.Name)
				if err != nil {
					return nil, err
				}
				r.DimClass = id
			}
		}
	}
	// Resolve level names within each dimension.
	for _, db := range b.dims {
		levelByName := map[string]*Level{}
		for _, l := range db.d.Levels {
			if prev := levelByName[l.Name]; prev != nil {
				return nil, fmt.Errorf("core: duplicate level name %q in dimension %s", l.Name, db.d.Name)
			}
			levelByName[l.Name] = l
		}
		resolveLevel := func(assocs []*Association) error {
			for _, a := range assocs {
				l, ok := levelByName[a.Child]
				if !ok {
					return fmt.Errorf("core: dimension %s: association references unknown level %q", db.d.Name, a.Child)
				}
				a.Child = l.ID
			}
			return nil
		}
		if err := resolveLevel(db.d.Associations); err != nil {
			return nil, err
		}
		for _, l := range db.d.Levels {
			if err := resolveLevel(l.Associations); err != nil {
				return nil, err
			}
		}
	}
	// Resolve cube references.
	for _, cb := range b.cubes {
		fact := b.m.FactByName(cb.factName)
		if fact == nil {
			return nil, fmt.Errorf("core: cube %s references unknown fact %q", cb.c.Name, cb.factName)
		}
		cb.c.Fact = fact.ID
		for _, mn := range cb.measures {
			a := fact.AttByName(mn)
			if a == nil {
				return nil, fmt.Errorf("core: cube %s: fact %s has no measure %q", cb.c.Name, fact.Name, mn)
			}
			cb.c.Measures = append(cb.c.Measures, a.ID)
		}
		for _, s := range cb.slices {
			id, err := b.resolveAtt(fact, s.att)
			if err != nil {
				return nil, fmt.Errorf("core: cube %s: %v", cb.c.Name, err)
			}
			cb.c.Slices = append(cb.c.Slices, &Slice{Att: id, Operator: s.op, Value: s.value})
		}
		for _, dd := range cb.dices {
			d, ok := dimByName[dd.dim]
			if !ok {
				return nil, fmt.Errorf("core: cube %s references unknown dimension %q", cb.c.Name, dd.dim)
			}
			dice := &Dice{DimClass: d.ID}
			if dd.level != "" {
				l := d.LevelByName(dd.level)
				if l == nil {
					return nil, fmt.Errorf("core: cube %s: dimension %s has no level %q", cb.c.Name, d.Name, dd.level)
				}
				dice.Level = l.ID
			}
			cb.c.Dices = append(cb.c.Dices, dice)
		}
	}
	if errs := b.m.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("core: model is not well-formed: %v (%d problems)", errs[0], len(errs))
	}
	return b.m, nil
}

// resolveAtt finds an attribute by name among the fact's measures and the
// attributes of its aggregated dimensions.
func (b *ModelBuilder) resolveAtt(fact *FactClass, name string) (string, error) {
	var found []string
	if a := fact.AttByName(name); a != nil {
		found = append(found, a.ID)
	}
	for _, agg := range fact.SharedAggs {
		d := b.m.Dim(agg.DimClass)
		if d == nil {
			continue
		}
		for _, a := range d.Atts {
			if a.Name == name {
				found = append(found, a.ID)
			}
		}
		for _, l := range d.Levels {
			for _, a := range l.Atts {
				if a.Name == name {
					found = append(found, a.ID)
				}
			}
		}
	}
	switch len(found) {
	case 0:
		return "", fmt.Errorf("no attribute named %q reachable from fact %s", name, fact.Name)
	case 1:
		return found[0], nil
	default:
		return "", fmt.Errorf("attribute name %q is ambiguous (%d matches)", name, len(found))
	}
}

// MustBuild is Build but panics on error.
func (b *ModelBuilder) MustBuild() *Model {
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}
