package olap

import (
	"fmt"

	"goldweb/internal/core"
)

// Cube is an interactive analysis session over a dataset: it starts from
// a query and supports the basic OLAP operations the paper lists for the
// further data-analysis phase — roll-up, drill-down, slice, dice — each
// producing a refined query that is re-executed on demand.
type Cube struct {
	ds *Dataset
	q  Query
	// history records the previous level per dimension so DrillDown can
	// retrace an ambiguous roll-up path.
	history map[string][]string
}

// NewCube starts an analysis over a fact class with the given measures
// (default operators chosen by additivity as in ExecuteCube).
func (ds *Dataset) NewCube(fact string, measures ...string) (*Cube, error) {
	f := ds.model.FactByName(fact)
	if f == nil {
		return nil, fmt.Errorf("olap: unknown fact class %q", fact)
	}
	c := &Cube{ds: ds, q: Query{Fact: fact}, history: map[string][]string{}}
	for _, m := range measures {
		att := f.AttByName(m)
		if att == nil {
			return nil, fmt.Errorf("olap: fact %s has no measure %q", fact, m)
		}
		op, err := strongestOp(ds, f, att, map[string]string{})
		if err != nil {
			return nil, err
		}
		c.q.Aggs = append(c.q.Aggs, Agg{Measure: m, Op: op})
	}
	return c, nil
}

// Dice adds (or replaces) a grouping axis.
func (c *Cube) Dice(dim, level string) *Cube {
	for i, g := range c.q.GroupBy {
		if g.Dim == dim {
			c.q.GroupBy[i].Level = level
			return c
		}
	}
	c.q.GroupBy = append(c.q.GroupBy, GroupBy{Dim: dim, Level: level})
	return c
}

// Slice adds a filter condition.
func (c *Cube) Slice(att string, op core.Operator, value string) *Cube {
	c.q.Filters = append(c.q.Filters, Filter{Att: att, Op: op, Value: value})
	return c
}

// RollUp coarsens the grouping of a dimension by one hierarchy step. When
// the DAG offers several upward paths (alternative path hierarchies) the
// step must be disambiguated with RollUpTo.
func (c *Cube) RollUp(dim string) error {
	d := c.ds.model.DimByName(dim)
	if d == nil {
		return fmt.Errorf("olap: unknown dimension %q", dim)
	}
	g := c.groupFor(dim)
	if g == nil {
		return fmt.Errorf("olap: dimension %s is not a grouping axis; Dice first", dim)
	}
	var edges []*core.Association
	if g.Level == "" {
		edges = d.Associations
	} else {
		l := d.LevelByName(g.Level)
		if l == nil {
			return fmt.Errorf("olap: dimension %s has no level %q", dim, g.Level)
		}
		edges = l.Associations
	}
	switch len(edges) {
	case 0:
		return fmt.Errorf("olap: %s/%s is the top of the hierarchy", dim, g.Level)
	case 1:
		return c.RollUpTo(dim, d.Level(edges[0].Child).Name)
	default:
		var names []string
		for _, e := range edges {
			names = append(names, d.Level(e.Child).Name)
		}
		return fmt.Errorf("olap: roll-up from %s/%s is ambiguous (alternative paths: %v); use RollUpTo", dim, g.Level, names)
	}
}

// RollUpTo coarsens the grouping of a dimension to a named level, which
// must be one DAG step above the current grouping level.
func (c *Cube) RollUpTo(dim, level string) error {
	d := c.ds.model.DimByName(dim)
	if d == nil {
		return fmt.Errorf("olap: unknown dimension %q", dim)
	}
	g := c.groupFor(dim)
	if g == nil {
		return fmt.Errorf("olap: dimension %s is not a grouping axis; Dice first", dim)
	}
	target := d.LevelByName(level)
	if target == nil {
		return fmt.Errorf("olap: dimension %s has no level %q", dim, level)
	}
	var edges []*core.Association
	if g.Level == "" {
		edges = d.Associations
	} else if l := d.LevelByName(g.Level); l != nil {
		edges = l.Associations
	}
	for _, e := range edges {
		if e.Child == target.ID {
			c.history[dim] = append(c.history[dim], g.Level)
			g.Level = level
			return nil
		}
	}
	return fmt.Errorf("olap: no association from %s/%s to level %s", dim, g.Level, level)
}

// DrillDown refines the grouping of a dimension by one step, retracing
// the previous roll-up when one happened, and otherwise following a
// unique downward edge.
func (c *Cube) DrillDown(dim string) error {
	d := c.ds.model.DimByName(dim)
	if d == nil {
		return fmt.Errorf("olap: unknown dimension %q", dim)
	}
	g := c.groupFor(dim)
	if g == nil {
		return fmt.Errorf("olap: dimension %s is not a grouping axis", dim)
	}
	if h := c.history[dim]; len(h) > 0 {
		g.Level = h[len(h)-1]
		c.history[dim] = h[:len(h)-1]
		return nil
	}
	if g.Level == "" {
		return fmt.Errorf("olap: %s is already at the terminal level", dim)
	}
	target := d.LevelByName(g.Level)
	// Downward candidates: sources of edges into the current level.
	var sources []string // "" = terminal
	for _, e := range d.Associations {
		if e.Child == target.ID {
			sources = append(sources, "")
		}
	}
	for _, l := range d.Levels {
		for _, e := range l.Associations {
			if e.Child == target.ID {
				sources = append(sources, l.Name)
			}
		}
	}
	switch len(sources) {
	case 0:
		return fmt.Errorf("olap: no downward path from %s/%s", dim, g.Level)
	case 1:
		g.Level = sources[0]
		return nil
	default:
		return fmt.Errorf("olap: drill-down from %s/%s is ambiguous (%v)", dim, g.Level, sources)
	}
}

func (c *Cube) groupFor(dim string) *GroupBy {
	for i := range c.q.GroupBy {
		if c.q.GroupBy[i].Dim == dim {
			return &c.q.GroupBy[i]
		}
	}
	return nil
}

// Result executes the cube's current query.
func (c *Cube) Result() (*Result, error) {
	return c.ds.Execute(c.q)
}
