package olap

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"goldweb/internal/core"
)

// GroupBy is one dice axis: group by the named level of the named
// dimension ("" = the dimension's terminal level).
type GroupBy struct {
	Dim   string
	Level string
}

// Filter is one slice condition on an attribute reachable from the fact
// class: a measure, a terminal-level dimension attribute, or a hierarchy
// level attribute.
type Filter struct {
	Att   string
	Op    core.Operator
	Value string
}

// Agg requests one aggregated value: an aggregation operator applied to a
// measure. Op is one of SUM, MIN, MAX, AVG, COUNT.
type Agg struct {
	Measure string
	Op      string
}

// Query is a complete cube query — the executable form of a cube class.
type Query struct {
	Fact    string
	Aggs    []Agg
	GroupBy []GroupBy
	Filters []Filter
}

// Result is a tabular query result.
type Result struct {
	// GroupCols names the grouping columns ("Time/Month").
	GroupCols []string
	// ValueCols names the value columns ("SUM(qty)").
	ValueCols []string
	Rows      []ResultRow
}

// ResultRow is one result group.
type ResultRow struct {
	// Keys are the group member keys, one per GroupCol.
	Keys []string
	// Names are the corresponding descriptor values.
	Names []string
	// Values are the aggregated measures, one per ValueCol.
	Values []float64
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	headers := append(append([]string{}, r.GroupCols...), r.ValueCols...)
	widths := make([]int, len(headers))
	rows := make([][]string, 0, len(r.Rows)+1)
	rows = append(rows, headers)
	for _, row := range r.Rows {
		cells := make([]string, 0, len(headers))
		for i := range row.Keys {
			label := row.Names[i]
			if label == "" {
				label = row.Keys[i]
			}
			cells = append(cells, label)
		}
		for _, v := range row.Values {
			cells = append(cells, strconv.FormatFloat(v, 'f', -1, 64))
		}
		rows = append(rows, cells)
	}
	for _, cells := range rows {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, cells := range rows {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
		if ri == 0 {
			for i := range cells {
				b.WriteString(strings.Repeat("-", widths[i]) + "  ")
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// AdditivityError reports an aggregation forbidden by the model's
// additivity rules.
type AdditivityError struct {
	Measure, Op, Dim string
}

func (e *AdditivityError) Error() string {
	return fmt.Sprintf("olap: additivity rules forbid %s(%s) along dimension %s", e.Op, e.Measure, e.Dim)
}

// Execute runs a query against the dataset.
func (ds *Dataset) Execute(q Query) (*Result, error) {
	var fd *FactData
	if f := ds.model.FactByName(q.Fact); f != nil {
		fd = ds.facts[f.ID]
	} else if f := ds.model.Fact(q.Fact); f != nil {
		fd = ds.facts[f.ID]
	} else {
		return nil, fmt.Errorf("olap: unknown fact class %q", q.Fact)
	}
	if len(q.Aggs) == 0 {
		return nil, fmt.Errorf("olap: query requests no aggregated measures")
	}

	// Resolve grouping axes.
	type axis struct {
		dim     *core.DimClass
		dd      *DimData
		levelID string
		label   string
	}
	axes := make([]*axis, len(q.GroupBy))
	grouped := map[string]string{} // dim id → level id
	for i, g := range q.GroupBy {
		d := ds.model.DimByName(g.Dim)
		if d == nil {
			return nil, fmt.Errorf("olap: unknown dimension %q", g.Dim)
		}
		if fd.fact.Agg(d.ID) == nil {
			return nil, fmt.Errorf("olap: fact %s does not aggregate dimension %s", fd.fact.Name, d.Name)
		}
		ax := &axis{dim: d, dd: ds.dims[d.ID], levelID: TerminalLevel, label: d.Name}
		if g.Level != "" {
			l := d.LevelByName(g.Level)
			if l == nil {
				return nil, fmt.Errorf("olap: dimension %s has no level %q", d.Name, g.Level)
			}
			ax.levelID = l.ID
			ax.label = d.Name + "/" + l.Name
		}
		axes[i] = ax
		grouped[d.ID] = ax.levelID
	}

	// Resolve aggregations, compile derivations, and enforce additivity:
	// an operator must be permitted along every dimension the query
	// collapses (not grouped, or grouped above the terminal level).
	type aggExec struct {
		agg    Agg
		att    *core.FactAtt
		derive derivationExpr
		label  string
	}
	aggs := make([]*aggExec, len(q.Aggs))
	for i, a := range q.Aggs {
		att := fd.fact.AttByName(a.Measure)
		if att == nil {
			return nil, fmt.Errorf("olap: fact %s has no measure %q", fd.fact.Name, a.Measure)
		}
		op := a.Op
		if op == "" {
			op = "SUM"
		}
		switch op {
		case "SUM", "MIN", "MAX", "AVG", "COUNT":
		default:
			return nil, fmt.Errorf("olap: unknown aggregation operator %q", a.Op)
		}
		ae := &aggExec{agg: Agg{Measure: a.Measure, Op: op}, att: att,
			label: op + "(" + a.Measure + ")"}
		if att.IsDerived {
			d, err := compileDerivation(att.DerivationRule)
			if err != nil {
				return nil, err
			}
			ae.derive = d
		}
		for _, sharedAgg := range fd.fact.SharedAggs {
			levelID, isGrouped := grouped[sharedAgg.DimClass]
			if isGrouped && levelID == TerminalLevel {
				continue // not collapsed along this dimension
			}
			rule := att.AdditivityFor(sharedAgg.DimClass)
			if rule != nil && !rule.Allows(op) {
				return nil, &AdditivityError{Measure: att.Name, Op: op,
					Dim: ds.model.Dim(sharedAgg.DimClass).Name}
			}
		}
		aggs[i] = ae
	}

	// Resolve filters.
	filters := make([]*filterExec, len(q.Filters))
	for i, f := range q.Filters {
		loc, err := fd.findAtt(f.Att)
		if err != nil {
			return nil, err
		}
		if !f.Op.Valid() {
			return nil, fmt.Errorf("olap: invalid operator %q", string(f.Op))
		}
		filters[i] = &filterExec{f: f, loc: loc}
	}

	// Accumulate.
	type accum struct {
		keys, names   []string
		sum, min, max []float64
		count         []int
	}
	groups := map[string]*accum{}
	var order []string

	for _, row := range fd.rows {
		ok, err := rowPasses(ds, fd, row, filters)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		// Group membership per axis (several members on non-strict or
		// many-to-many paths → the row contributes to each).
		combos := [][]*Member{{}}
		for _, ax := range axes {
			var axisMembers []*Member
			seen := map[*Member]bool{}
			for _, key := range row.Coords[ax.dim.Name] {
				leaf := ax.dd.Member("", key)
				for _, m := range ax.dd.ancestorsAt(leaf, ax.levelID) {
					if !seen[m] {
						seen[m] = true
						axisMembers = append(axisMembers, m)
					}
				}
			}
			if len(axisMembers) == 0 {
				combos = nil // the row reaches no member at this level
				break
			}
			var next [][]*Member
			for _, combo := range combos {
				for _, m := range axisMembers {
					next = append(next, append(append([]*Member{}, combo...), m))
				}
			}
			combos = next
		}
		if combos == nil {
			continue
		}
		// Measure values for this row.
		values := make([]float64, len(aggs))
		for i, ae := range aggs {
			if ae.derive != nil {
				v, err := ae.derive.eval(row.Measures)
				if err != nil {
					return nil, err
				}
				values[i] = v
			} else {
				values[i] = row.Measures[ae.att.Name]
			}
		}
		for _, combo := range combos {
			keyParts := make([]string, len(combo))
			nameParts := make([]string, len(combo))
			for i, m := range combo {
				keyParts[i] = m.Key
				nameParts[i] = m.Name
			}
			gkey := strings.Join(keyParts, "\x1f")
			acc := groups[gkey]
			if acc == nil {
				acc = &accum{keys: keyParts, names: nameParts,
					sum:   make([]float64, len(aggs)),
					min:   make([]float64, len(aggs)),
					max:   make([]float64, len(aggs)),
					count: make([]int, len(aggs))}
				groups[gkey] = acc
				order = append(order, gkey)
			}
			for i := range aggs {
				v := values[i]
				if acc.count[i] == 0 {
					acc.min[i], acc.max[i] = v, v
				} else {
					if v < acc.min[i] {
						acc.min[i] = v
					}
					if v > acc.max[i] {
						acc.max[i] = v
					}
				}
				acc.sum[i] += v
				acc.count[i]++
			}
		}
	}

	res := &Result{}
	for _, ax := range axes {
		res.GroupCols = append(res.GroupCols, ax.label)
	}
	for _, ae := range aggs {
		res.ValueCols = append(res.ValueCols, ae.label)
	}
	sort.Strings(order)
	for _, gkey := range order {
		acc := groups[gkey]
		row := ResultRow{Keys: acc.keys, Names: acc.names, Values: make([]float64, len(aggs))}
		for i, ae := range aggs {
			switch ae.agg.Op {
			case "SUM":
				row.Values[i] = acc.sum[i]
			case "MIN":
				row.Values[i] = acc.min[i]
			case "MAX":
				row.Values[i] = acc.max[i]
			case "AVG":
				row.Values[i] = acc.sum[i] / float64(acc.count[i])
			case "COUNT":
				row.Values[i] = float64(acc.count[i])
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// filterExec pairs a filter with its resolved attribute location.
type filterExec struct {
	f   Filter
	loc *attLocation
}

// rowPasses evaluates every filter against a fact row.
func rowPasses(ds *Dataset, fd *FactData, row *Row, filters []*filterExec) (bool, error) {
	for _, fe := range filters {
		ok, err := filterMatches(ds, fd, row, fe.f, fe.loc)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

func filterMatches(ds *Dataset, fd *FactData, row *Row, f Filter, loc *attLocation) (bool, error) {
	if loc.measure != nil {
		var v float64
		if loc.measure.IsDerived {
			d, err := compileDerivation(loc.measure.DerivationRule)
			if err != nil {
				return false, err
			}
			if v, err = d.eval(row.Measures); err != nil {
				return false, err
			}
		} else if loc.measure.IsOID {
			return compareValues(row.Degenerate[loc.measure.Name], f.Op, f.Value), nil
		} else {
			v = row.Measures[loc.measure.Name]
		}
		return compareValues(strconv.FormatFloat(v, 'f', -1, 64), f.Op, f.Value), nil
	}
	// Dimension attribute: existential over the row's coordinates (and,
	// for level attributes, over the ancestors at that level).
	dd := ds.dims[loc.dim.ID]
	for _, key := range row.Coords[loc.dim.Name] {
		leaf := dd.Member("", key)
		if leaf == nil {
			continue
		}
		members := []*Member{leaf}
		if loc.levelID != TerminalLevel {
			members = dd.ancestorsAt(leaf, loc.levelID)
		}
		for _, m := range members {
			if compareValues(memberAttValue(m, loc.att), f.Op, f.Value) {
				return true, nil
			}
		}
	}
	return false, nil
}

// memberAttValue reads an attribute off a member: the {OID} maps to the
// key, the {D} to the name, everything else to the Attrs table.
func memberAttValue(m *Member, att *core.DimAtt) string {
	switch {
	case att.IsOID:
		return m.Key
	case att.IsD:
		return m.Name
	default:
		return m.Attrs[att.Name]
	}
}

// compareValues applies a slice operator. Ordered comparisons go numeric
// when both sides parse as numbers, string otherwise; LIKE supports the
// '%' wildcard; IN takes a comma-separated list.
func compareValues(have string, op core.Operator, want string) bool {
	switch op {
	case core.OpEQ:
		return have == want
	case core.OpNOTEQ:
		return have != want
	case core.OpLT, core.OpGT, core.OpLET, core.OpGET:
		hf, herr := strconv.ParseFloat(have, 64)
		wf, werr := strconv.ParseFloat(want, 64)
		var cmp int
		if herr == nil && werr == nil {
			switch {
			case hf < wf:
				cmp = -1
			case hf > wf:
				cmp = 1
			}
		} else {
			cmp = strings.Compare(have, want)
		}
		switch op {
		case core.OpLT:
			return cmp < 0
		case core.OpGT:
			return cmp > 0
		case core.OpLET:
			return cmp <= 0
		case core.OpGET:
			return cmp >= 0
		}
	case core.OpLIKE:
		return likeMatch(have, want)
	case core.OpNOTLIKE:
		return !likeMatch(have, want)
	case core.OpIN:
		for _, item := range strings.Split(want, ",") {
			if have == strings.TrimSpace(item) {
				return true
			}
		}
		return false
	case core.OpNOTIN:
		for _, item := range strings.Split(want, ",") {
			if have == strings.TrimSpace(item) {
				return false
			}
		}
		return true
	}
	return false
}

// likeMatch implements SQL-ish LIKE with '%' as the only wildcard.
func likeMatch(s, pattern string) bool {
	parts := strings.Split(pattern, "%")
	if len(parts) == 1 {
		return s == pattern
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	for i := 1; i < len(parts)-1; i++ {
		idx := strings.Index(s, parts[i])
		if idx < 0 {
			return false
		}
		s = s[idx+len(parts[i]):]
	}
	return strings.HasSuffix(s, parts[len(parts)-1])
}

// ExecuteCube runs a cube class from the model against the dataset. The
// aggregation operator per measure is chosen as the strongest operator
// the additivity rules allow along every collapsed dimension
// (SUM → COUNT → MAX → MIN → AVG).
func (ds *Dataset) ExecuteCube(cubeID string) (*Result, error) {
	cube := ds.model.Cube(cubeID)
	if cube == nil {
		for _, c := range ds.model.Cubes {
			if c.Name == cubeID {
				cube = c
				break
			}
		}
	}
	if cube == nil {
		return nil, fmt.Errorf("olap: unknown cube class %q", cubeID)
	}
	fact := ds.model.Fact(cube.Fact)
	if fact == nil {
		return nil, fmt.Errorf("olap: cube %s references unknown fact %q", cube.Name, cube.Fact)
	}
	q := Query{Fact: fact.Name}
	grouped := map[string]string{}
	for _, d := range cube.Dices {
		dim := ds.model.Dim(d.DimClass)
		if dim == nil {
			return nil, fmt.Errorf("olap: cube %s dices unknown dimension %q", cube.Name, d.DimClass)
		}
		g := GroupBy{Dim: dim.Name}
		levelID := TerminalLevel
		if d.Level != "" {
			l := dim.Level(d.Level)
			if l == nil {
				return nil, fmt.Errorf("olap: cube %s dices unknown level %q", cube.Name, d.Level)
			}
			g.Level = l.Name
			levelID = l.ID
		}
		grouped[dim.ID] = levelID
		q.GroupBy = append(q.GroupBy, g)
	}
	for _, mid := range cube.Measures {
		att := fact.Att(mid)
		if att == nil {
			return nil, fmt.Errorf("olap: cube %s references unknown measure %q", cube.Name, mid)
		}
		op, err := strongestOp(ds, fact, att, grouped)
		if err != nil {
			return nil, err
		}
		q.Aggs = append(q.Aggs, Agg{Measure: att.Name, Op: op})
	}
	for _, s := range cube.Slices {
		att := attNameByID(ds.model, fact, s.Att)
		if att == "" {
			return nil, fmt.Errorf("olap: cube %s slices unknown attribute %q", cube.Name, s.Att)
		}
		q.Filters = append(q.Filters, Filter{Att: att, Op: s.Operator, Value: s.Value})
	}
	return ds.Execute(q)
}

// strongestOp picks the preferred operator permitted along every
// collapsed dimension.
func strongestOp(ds *Dataset, fact *core.FactClass, att *core.FactAtt, grouped map[string]string) (string, error) {
	prefs := []string{"SUM", "COUNT", "MAX", "MIN", "AVG"}
	for _, op := range prefs {
		ok := true
		for _, agg := range fact.SharedAggs {
			levelID, isGrouped := grouped[agg.DimClass]
			if isGrouped && levelID == TerminalLevel {
				continue
			}
			rule := att.AdditivityFor(agg.DimClass)
			if rule != nil && !rule.Allows(op) {
				ok = false
				break
			}
		}
		if ok {
			return op, nil
		}
	}
	return "", fmt.Errorf("olap: no aggregation operator is permitted for measure %s with this grouping", att.Name)
}

// attNameByID resolves an attribute id (dimatt or factatt) reachable from
// the fact to its name.
func attNameByID(m *core.Model, fact *core.FactClass, id string) string {
	if a := fact.Att(id); a != nil {
		return a.Name
	}
	for _, agg := range fact.SharedAggs {
		d := m.Dim(agg.DimClass)
		if d == nil {
			continue
		}
		for _, a := range d.Atts {
			if a.ID == id {
				return a.Name
			}
		}
		for _, l := range d.Levels {
			for _, a := range l.Atts {
				if a.ID == id {
					return a.Name
				}
			}
		}
	}
	return ""
}
