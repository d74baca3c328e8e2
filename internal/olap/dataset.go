// Package olap is the execution substrate behind the paper's "export into
// a commercial OLAP tool": an in-memory multidimensional engine that
// instantiates a conceptual model (core.Model) with dimension members and
// fact rows, and executes cube-class queries — measures, slice, dice —
// plus the further-analysis OLAP operations (roll-up, drill-down) over
// the classification-hierarchy DAG, enforcing the model's additivity
// rules.
package olap

import (
	"fmt"
	"strings"

	"goldweb/internal/core"
)

// Dataset holds the instance data of one conceptual model.
type Dataset struct {
	model *core.Model
	dims  map[string]*DimData  // by dimension id
	facts map[string]*FactData // by fact id
}

// NewDataset prepares an empty dataset for the model.
func NewDataset(m *core.Model) *Dataset {
	ds := &Dataset{model: m, dims: map[string]*DimData{}, facts: map[string]*FactData{}}
	for _, d := range m.Dims {
		ds.dims[d.ID] = newDimData(d)
	}
	for _, f := range m.Facts {
		ds.facts[f.ID] = &FactData{fact: f, ds: ds}
	}
	return ds
}

// Model returns the conceptual model the dataset instantiates.
func (ds *Dataset) Model() *core.Model { return ds.model }

// Dim returns the data container of the named dimension.
func (ds *Dataset) Dim(name string) *DimData {
	d := ds.model.DimByName(name)
	if d == nil {
		panic(fmt.Sprintf("olap: unknown dimension %q", name))
	}
	return ds.dims[d.ID]
}

// Fact returns the data container of the named fact class.
func (ds *Dataset) Fact(name string) *FactData {
	f := ds.model.FactByName(name)
	if f == nil {
		panic(fmt.Sprintf("olap: unknown fact class %q", name))
	}
	return ds.facts[f.ID]
}

// TerminalLevel is the pseudo level id of a dimension's terminal (leaf)
// level — the dimension class itself.
const TerminalLevel = ""

// Member is one member of a dimension level.
type Member struct {
	Key   string // value of the level's {OID} attribute
	Name  string // value of the level's {D} attribute
	Level string // level id; TerminalLevel for leaf members
	// Attrs holds further attribute values by attribute name.
	Attrs map[string]string
	// parents maps a target level id to the member's direct parents
	// there; more than one parent on an edge = non-strict hierarchy.
	parents map[string][]*Member
}

// DimData holds the members of one dimension.
type DimData struct {
	dim *core.DimClass
	// members[level][key]
	members map[string]map[string]*Member
}

func newDimData(d *core.DimClass) *DimData {
	return &DimData{dim: d, members: map[string]map[string]*Member{}}
}

// AddMember adds a member to a hierarchy level (by level name; "" = the
// terminal level) and returns it.
func (dd *DimData) AddMember(levelName, key, name string) *Member {
	levelID := TerminalLevel
	if levelName != "" {
		l := dd.dim.LevelByName(levelName)
		if l == nil {
			panic(fmt.Sprintf("olap: dimension %s has no level %q", dd.dim.Name, levelName))
		}
		levelID = l.ID
	}
	m := &Member{Key: key, Name: name, Level: levelID,
		Attrs: map[string]string{}, parents: map[string][]*Member{}}
	lvl := dd.members[levelID]
	if lvl == nil {
		lvl = map[string]*Member{}
		dd.members[levelID] = lvl
	}
	if _, dup := lvl[key]; dup {
		panic(fmt.Sprintf("olap: duplicate member %q in %s/%s", key, dd.dim.Name, levelName))
	}
	lvl[key] = m
	return m
}

// Set records an additional attribute value on the member.
func (m *Member) Set(att, value string) *Member {
	m.Attrs[att] = value
	return m
}

// Members returns every member of a level ("" = terminal), in load order
// is not guaranteed — callers sort as needed.
func (dd *DimData) Members(levelName string) []*Member {
	levelID := TerminalLevel
	if levelName != "" {
		l := dd.dim.LevelByName(levelName)
		if l == nil {
			return nil
		}
		levelID = l.ID
	}
	out := make([]*Member, 0, len(dd.members[levelID]))
	for _, m := range dd.members[levelID] {
		out = append(out, m)
	}
	return out
}

// ParentsAt returns the member's direct parents on the edge to the given
// level id.
func (m *Member) ParentsAt(levelID string) []*Member {
	return m.parents[levelID]
}

// Member returns a member by level name ("" = terminal) and key, or nil.
func (dd *DimData) Member(levelName, key string) *Member {
	levelID := TerminalLevel
	if levelName != "" {
		l := dd.dim.LevelByName(levelName)
		if l == nil {
			return nil
		}
		levelID = l.ID
	}
	return dd.members[levelID][key]
}

// Link records that the child member rolls up to the parent member. The
// edge must exist in the dimension's DAG; strict associations admit only
// one parent per child on that edge.
func (dd *DimData) Link(childLevel, childKey, parentLevel, parentKey string) error {
	child := dd.Member(childLevel, childKey)
	if child == nil {
		return fmt.Errorf("olap: %s: unknown child member %s/%s", dd.dim.Name, childLevel, childKey)
	}
	parent := dd.Member(parentLevel, parentKey)
	if parent == nil {
		return fmt.Errorf("olap: %s: unknown parent member %s/%s", dd.dim.Name, parentLevel, parentKey)
	}
	assoc := dd.assocBetween(child.Level, parent.Level)
	if assoc == nil {
		return fmt.Errorf("olap: %s: no association from level %q to level %q in the DAG",
			dd.dim.Name, childLevel, parentLevel)
	}
	if !assoc.NonStrict() && len(child.parents[parent.Level]) > 0 {
		return fmt.Errorf("olap: %s: member %q already rolls up to a %s member and the association is strict",
			dd.dim.Name, childKey, parentLevel)
	}
	child.parents[parent.Level] = append(child.parents[parent.Level], parent)
	return nil
}

// MustLink is Link but panics on error; for dataset construction in
// examples and tests.
func (dd *DimData) MustLink(childLevel, childKey, parentLevel, parentKey string) {
	if err := dd.Link(childLevel, childKey, parentLevel, parentKey); err != nil {
		panic(err)
	}
}

// assocBetween finds the DAG edge from a level ("" = dimension root) to a
// target level.
func (dd *DimData) assocBetween(childLevelID, parentLevelID string) *core.Association {
	var edges []*core.Association
	if childLevelID == TerminalLevel {
		edges = dd.dim.Associations
	} else if l := dd.dim.Level(childLevelID); l != nil {
		edges = l.Associations
	}
	for _, e := range edges {
		if e.Child == parentLevelID {
			return e
		}
	}
	return nil
}

// ancestorsAt returns the member's ancestors at the target level,
// following every DAG path (alternative paths and non-strict edges can
// produce several).
func (dd *DimData) ancestorsAt(m *Member, targetLevelID string) []*Member {
	if m.Level == targetLevelID {
		return []*Member{m}
	}
	seen := map[*Member]bool{}
	var out []*Member
	var walk func(cur *Member)
	walk = func(cur *Member) {
		for _, ps := range cur.parents {
			for _, p := range ps {
				if seen[p] {
					continue
				}
				seen[p] = true
				if p.Level == targetLevelID {
					out = append(out, p)
				}
				walk(p)
			}
		}
	}
	walk(m)
	return out
}

// ---- fact data ----

// Row is one fact instance: coordinates into every aggregated dimension
// (several keys for many-to-many dimensions), measure values, and the
// values of the degenerate-dimension measures.
type Row struct {
	// Coords maps dimension name → terminal member key(s).
	Coords map[string][]string
	// Measures maps measure name → numeric value.
	Measures map[string]float64
	// Degenerate maps {OID} measure name → value (ticket numbers etc.).
	Degenerate map[string]string
}

// FactData holds the rows of one fact class.
type FactData struct {
	fact *core.FactClass
	ds   *Dataset
	rows []*Row
}

// Rows exposes the loaded rows (read-only by convention).
func (fd *FactData) Rows() []*Row { return fd.rows }

// Add validates and appends a fact row: every aggregated dimension needs
// a coordinate, multiple keys are only allowed on many-to-many
// aggregations, coordinates must reference loaded leaf members, and
// measures must be declared (derived measures are computed, not loaded).
func (fd *FactData) Add(r Row) error {
	for _, agg := range fd.fact.SharedAggs {
		dim := fd.ds.model.Dim(agg.DimClass)
		keys := r.Coords[dim.Name]
		if len(keys) == 0 {
			return fmt.Errorf("olap: fact %s: row is missing a %s coordinate", fd.fact.Name, dim.Name)
		}
		if len(keys) > 1 && !agg.ManyToMany() {
			return fmt.Errorf("olap: fact %s: multiple %s coordinates on a non many-to-many aggregation",
				fd.fact.Name, dim.Name)
		}
		dd := fd.ds.dims[dim.ID]
		for _, k := range keys {
			if dd.Member("", k) == nil {
				return fmt.Errorf("olap: fact %s: unknown %s member %q", fd.fact.Name, dim.Name, k)
			}
		}
	}
	for name := range r.Coords {
		d := fd.ds.model.DimByName(name)
		if d == nil || fd.fact.Agg(d.ID) == nil {
			return fmt.Errorf("olap: fact %s: coordinate for non-aggregated dimension %q", fd.fact.Name, name)
		}
	}
	for name := range r.Measures {
		a := fd.fact.AttByName(name)
		if a == nil {
			return fmt.Errorf("olap: fact %s: unknown measure %q", fd.fact.Name, name)
		}
		if a.IsDerived {
			return fmt.Errorf("olap: fact %s: derived measure %q cannot be loaded", fd.fact.Name, name)
		}
	}
	for name := range r.Degenerate {
		a := fd.fact.AttByName(name)
		if a == nil || !a.IsOID {
			return fmt.Errorf("olap: fact %s: %q is not a degenerate-dimension measure", fd.fact.Name, name)
		}
	}
	row := r
	fd.rows = append(fd.rows, &row)
	return nil
}

// MustAdd is Add but panics on error.
func (fd *FactData) MustAdd(r Row) {
	if err := fd.Add(r); err != nil {
		panic(err)
	}
}

// Coord is a convenience constructor for single-key coordinates.
func Coord(pairs ...string) map[string][]string {
	if len(pairs)%2 != 0 {
		panic("olap: Coord requires name/key pairs")
	}
	out := map[string][]string{}
	for i := 0; i < len(pairs); i += 2 {
		out[pairs[i]] = append(out[pairs[i]], pairs[i+1])
	}
	return out
}

// attLocation describes where an attribute name lives so filters can be
// evaluated.
type attLocation struct {
	dim     *core.DimClass
	levelID string
	att     *core.DimAtt
	measure *core.FactAtt
}

// findAtt locates an attribute by name among the fact's measures and the
// attributes of its aggregated dimensions.
func (fd *FactData) findAtt(name string) (*attLocation, error) {
	var found []*attLocation
	if a := fd.fact.AttByName(name); a != nil {
		found = append(found, &attLocation{measure: a})
	}
	for _, agg := range fd.fact.SharedAggs {
		d := fd.ds.model.Dim(agg.DimClass)
		if d == nil {
			continue
		}
		for _, a := range d.Atts {
			if a.Name == name {
				found = append(found, &attLocation{dim: d, levelID: TerminalLevel, att: a})
			}
		}
		for _, l := range d.Levels {
			for _, a := range l.Atts {
				if a.Name == name {
					found = append(found, &attLocation{dim: d, levelID: l.ID, att: a})
				}
			}
		}
	}
	switch len(found) {
	case 0:
		return nil, fmt.Errorf("olap: fact %s: no attribute %q in scope", fd.fact.Name, name)
	case 1:
		return found[0], nil
	default:
		var places []string
		for _, f := range found {
			if f.measure != nil {
				places = append(places, "measure")
			} else {
				places = append(places, f.dim.Name)
			}
		}
		return nil, fmt.Errorf("olap: fact %s: attribute %q is ambiguous (%s)",
			fd.fact.Name, name, strings.Join(places, ", "))
	}
}
