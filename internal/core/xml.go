package core

import (
	"fmt"
	"time"

	"goldweb/internal/xmldom"
)

// dateLayout is the xsd:date lexical form used by creationdate and
// lastmodified.
const dateLayout = "2006-01-02"

// ToXML renders the model as a goldmodel document conforming to the
// canonical XML Schema, the way the paper's CASE tool exports models
// (Fig. 3).
func (m *Model) ToXML() *xmldom.Node {
	doc := xmldom.NewDocument()
	root := doc.AddElement("goldmodel")
	setAttr(root, "id", m.ID)
	root.SetAttr("name", m.Name)
	if !m.ShowAtts {
		root.SetAttr("showatts", "false")
	}
	if !m.ShowMethods {
		root.SetAttr("showmethods", "false")
	}
	if !m.CreationDate.IsZero() {
		root.SetAttr("creationdate", m.CreationDate.Format(dateLayout))
	}
	if !m.LastModified.IsZero() {
		root.SetAttr("lastmodified", m.LastModified.Format(dateLayout))
	}
	setAttr(root, "description", m.Description)
	setAttr(root, "responsible", m.Responsible)

	facts := root.AddElement("factclasses")
	for _, f := range m.Facts {
		marshalFact(facts, f)
	}
	dims := root.AddElement("dimclasses")
	for _, d := range m.Dims {
		marshalDim(dims, d)
	}
	if len(m.Cubes) > 0 {
		cubes := root.AddElement("cubeclasses")
		for _, c := range m.Cubes {
			marshalCube(cubes, c)
		}
	}
	return doc
}

// XMLString is ToXML serialized with an XML declaration.
func (m *Model) XMLString() string {
	return xmldom.SerializeToString(m.ToXML(), xmldom.WriteOptions{})
}

// PrettyXML is ToXML pretty-printed, the way a browser displays the
// document without a stylesheet (Fig. 4).
func (m *Model) PrettyXML() string {
	return xmldom.Pretty(m.ToXML())
}

// setAttr writes an optional attribute, omitting an empty value. A
// required name is written even when empty: the schema accepts name="",
// and the document of a model read from a valid document must be valid.
func setAttr(e *xmldom.Node, name, v string) {
	if v != "" {
		e.SetAttr(name, v)
	}
}

func setBool(e *xmldom.Node, name string, v bool) {
	if v {
		e.SetAttr(name, "true")
	}
}

func marshalFact(parent *xmldom.Node, f *FactClass) {
	e := parent.AddElement("factclass")
	setAttr(e, "id", f.ID)
	e.SetAttr("name", f.Name)
	setAttr(e, "caption", f.Caption)
	setAttr(e, "description", f.Description)
	if len(f.Atts) > 0 {
		atts := e.AddElement("factatts")
		for _, a := range f.Atts {
			ae := atts.AddElement("factatt")
			setAttr(ae, "id", a.ID)
			ae.SetAttr("name", a.Name)
			setAttr(ae, "type", a.Type)
			setBool(ae, "isoid", a.IsOID)
			setBool(ae, "derived", a.IsDerived)
			setAttr(ae, "derivationrule", a.DerivationRule)
			setBool(ae, "atomic", a.IsAtomic)
			setAttr(ae, "description", a.Description)
			for _, r := range a.Additivity {
				re := ae.AddElement("additivity")
				setAttr(re, "dimclass", r.DimClass)
				setBool(re, "isnot", r.IsNot)
				setBool(re, "issum", r.IsSUM)
				setBool(re, "ismax", r.IsMAX)
				setBool(re, "ismin", r.IsMIN)
				setBool(re, "isavg", r.IsAVG)
				setBool(re, "iscount", r.IsCOUNT)
			}
		}
	}
	marshalMethods(e, f.Methods)
	if len(f.SharedAggs) > 0 {
		aggs := e.AddElement("sharedaggs")
		for _, a := range f.SharedAggs {
			ae := aggs.AddElement("sharedagg")
			setAttr(ae, "dimclass", a.DimClass)
			setAttr(ae, "name", a.Name)
			setAttr(ae, "description", a.Description)
			if a.RoleA != "" {
				ae.SetAttr("rolea", string(a.RoleA))
			}
			if a.RoleB != "" {
				ae.SetAttr("roleb", string(a.RoleB))
			}
		}
	}
}

func marshalMethods(parent *xmldom.Node, methods []*Method) {
	if len(methods) == 0 {
		return
	}
	ms := parent.AddElement("methods")
	for _, meth := range methods {
		me := ms.AddElement("method")
		setAttr(me, "id", meth.ID)
		me.SetAttr("name", meth.Name)
		setAttr(me, "signature", meth.Signature)
		setAttr(me, "description", meth.Description)
	}
}

func marshalDimAtts(parent *xmldom.Node, atts []*DimAtt) {
	if len(atts) == 0 {
		return
	}
	as := parent.AddElement("dimatts")
	for _, a := range atts {
		ae := as.AddElement("dimatt")
		setAttr(ae, "id", a.ID)
		ae.SetAttr("name", a.Name)
		setAttr(ae, "type", a.Type)
		setBool(ae, "isoid", a.IsOID)
		setBool(ae, "isd", a.IsD)
		setAttr(ae, "description", a.Description)
	}
}

func marshalAssocs(parent *xmldom.Node, assocs []*Association) {
	if len(assocs) == 0 {
		return
	}
	rs := parent.AddElement("relationasocs")
	for _, a := range assocs {
		re := rs.AddElement("relationasoc")
		setAttr(re, "child", a.Child)
		setAttr(re, "name", a.Name)
		setAttr(re, "description", a.Description)
		if a.RoleA != "" {
			re.SetAttr("rolea", string(a.RoleA))
		}
		if a.RoleB != "" {
			re.SetAttr("roleb", string(a.RoleB))
		}
		setBool(re, "completeness", a.Completeness)
	}
}

func marshalDim(parent *xmldom.Node, d *DimClass) {
	e := parent.AddElement("dimclass")
	setAttr(e, "id", d.ID)
	e.SetAttr("name", d.Name)
	setAttr(e, "caption", d.Caption)
	setAttr(e, "description", d.Description)
	setBool(e, "istime", d.IsTime)
	marshalDimAtts(e, d.Atts)
	if len(d.Levels) > 0 {
		ls := e.AddElement("asoclevels")
		for _, l := range d.Levels {
			le := ls.AddElement("asoclevel")
			setAttr(le, "id", l.ID)
			le.SetAttr("name", l.Name)
			setAttr(le, "caption", l.Caption)
			setAttr(le, "description", l.Description)
			marshalDimAtts(le, l.Atts)
			marshalAssocs(le, l.Associations)
			marshalMethods(le, l.Methods)
		}
	}
	marshalAssocs(e, d.Associations)
	if len(d.CatLevels) > 0 {
		cs := e.AddElement("catlevels")
		for _, cl := range d.CatLevels {
			ce := cs.AddElement("catlevel")
			setAttr(ce, "id", cl.ID)
			ce.SetAttr("name", cl.Name)
			setAttr(ce, "description", cl.Description)
			marshalDimAtts(ce, cl.Atts)
		}
	}
	marshalMethods(e, d.Methods)
}

func marshalCube(parent *xmldom.Node, c *CubeClass) {
	e := parent.AddElement("cubeclass")
	setAttr(e, "id", c.ID)
	e.SetAttr("name", c.Name)
	setAttr(e, "description", c.Description)
	setAttr(e, "factclass", c.Fact)
	if len(c.Measures) > 0 {
		ms := e.AddElement("measures")
		for _, mid := range c.Measures {
			ms.AddElement("measure").SetAttr("factatt", mid)
		}
	}
	if len(c.Slices) > 0 {
		ss := e.AddElement("slices")
		for _, s := range c.Slices {
			se := ss.AddElement("slice")
			setAttr(se, "att", s.Att)
			se.SetAttr("operator", string(s.Operator))
			se.SetAttr("value", s.Value)
		}
	}
	if len(c.Dices) > 0 {
		ds := e.AddElement("dices")
		for _, dd := range c.Dices {
			de := ds.AddElement("dice")
			setAttr(de, "dimclass", dd.DimClass)
			setAttr(de, "level", dd.Level)
		}
	}
}

// ---- unmarshal ----

// ModelFromXML reads a goldmodel document back into a Model. It applies
// the schema's attribute defaults itself, so a document need not have
// been default-expanded by validation first.
func ModelFromXML(doc *xmldom.Node) (*Model, error) {
	root := doc.DocumentElement()
	if root == nil || root.Name != "goldmodel" {
		return nil, fmt.Errorf("core: document root is not goldmodel")
	}
	m := &Model{
		ID:          root.AttrValue("id"),
		Name:        root.AttrValue("name"),
		ShowAtts:    attrBool(root, "showatts", true),
		ShowMethods: attrBool(root, "showmethods", true),
		Description: root.AttrValue("description"),
		Responsible: root.AttrValue("responsible"),
	}
	var err error
	if m.CreationDate, err = attrDate(root, "creationdate"); err != nil {
		return nil, err
	}
	if m.LastModified, err = attrDate(root, "lastmodified"); err != nil {
		return nil, err
	}
	if fcs := root.FirstElement("factclasses"); fcs != nil {
		for _, fe := range fcs.ElementsByName("factclass") {
			m.Facts = append(m.Facts, unmarshalFact(fe))
		}
	}
	if dcs := root.FirstElement("dimclasses"); dcs != nil {
		for _, de := range dcs.ElementsByName("dimclass") {
			m.Dims = append(m.Dims, unmarshalDim(de))
		}
	}
	if ccs := root.FirstElement("cubeclasses"); ccs != nil {
		for _, ce := range ccs.ElementsByName("cubeclass") {
			m.Cubes = append(m.Cubes, unmarshalCube(ce))
		}
	}
	return m, nil
}

// ModelFromXMLString parses and unmarshals model XML text.
func ModelFromXMLString(src string) (*Model, error) {
	doc, err := xmldom.ParseString(src)
	if err != nil {
		return nil, err
	}
	return ModelFromXML(doc)
}

func attrBool(e *xmldom.Node, name string, def bool) bool {
	a := e.GetAttr(name)
	if a == nil {
		return def
	}
	return a.Data == "true" || a.Data == "1"
}

func attrDate(e *xmldom.Node, name string) (time.Time, error) {
	v := e.AttrValue(name)
	if v == "" {
		return time.Time{}, nil
	}
	t, err := time.Parse(dateLayout, v)
	if err != nil {
		return time.Time{}, fmt.Errorf("core: bad %s: %v", name, err)
	}
	return t, nil
}

func attrMult(e *xmldom.Node, name string, def Multiplicity) Multiplicity {
	if v := e.AttrValue(name); v != "" {
		return Multiplicity(v)
	}
	return def
}

func unmarshalFact(e *xmldom.Node) *FactClass {
	f := &FactClass{
		ID:          e.AttrValue("id"),
		Name:        e.AttrValue("name"),
		Caption:     e.AttrValue("caption"),
		Description: e.AttrValue("description"),
	}
	if atts := e.FirstElement("factatts"); atts != nil {
		for _, ae := range atts.ElementsByName("factatt") {
			a := &FactAtt{
				ID:             ae.AttrValue("id"),
				Name:           ae.AttrValue("name"),
				Type:           ae.AttrValue("type"),
				IsOID:          attrBool(ae, "isoid", false),
				IsDerived:      attrBool(ae, "derived", false),
				DerivationRule: ae.AttrValue("derivationrule"),
				IsAtomic:       attrBool(ae, "atomic", false),
				Description:    ae.AttrValue("description"),
			}
			for _, re := range ae.ElementsByName("additivity") {
				a.Additivity = append(a.Additivity, &AdditivityRule{
					DimClass: re.AttrValue("dimclass"),
					IsNot:    attrBool(re, "isnot", false),
					IsSUM:    attrBool(re, "issum", false),
					IsMAX:    attrBool(re, "ismax", false),
					IsMIN:    attrBool(re, "ismin", false),
					IsAVG:    attrBool(re, "isavg", false),
					IsCOUNT:  attrBool(re, "iscount", false),
				})
			}
			f.Atts = append(f.Atts, a)
		}
	}
	f.Methods = unmarshalMethods(e)
	if aggs := e.FirstElement("sharedaggs"); aggs != nil {
		for _, ae := range aggs.ElementsByName("sharedagg") {
			f.SharedAggs = append(f.SharedAggs, &SharedAgg{
				DimClass:    ae.AttrValue("dimclass"),
				Name:        ae.AttrValue("name"),
				Description: ae.AttrValue("description"),
				RoleA:       attrMult(ae, "rolea", MultM),
				RoleB:       attrMult(ae, "roleb", Mult1),
			})
		}
	}
	return f
}

func unmarshalMethods(parent *xmldom.Node) []*Method {
	ms := parent.FirstElement("methods")
	if ms == nil {
		return nil
	}
	var out []*Method
	for _, me := range ms.ElementsByName("method") {
		out = append(out, &Method{
			ID:          me.AttrValue("id"),
			Name:        me.AttrValue("name"),
			Signature:   me.AttrValue("signature"),
			Description: me.AttrValue("description"),
		})
	}
	return out
}

func unmarshalDimAtts(parent *xmldom.Node) []*DimAtt {
	as := parent.FirstElement("dimatts")
	if as == nil {
		return nil
	}
	var out []*DimAtt
	for _, ae := range as.ElementsByName("dimatt") {
		out = append(out, &DimAtt{
			ID:          ae.AttrValue("id"),
			Name:        ae.AttrValue("name"),
			Type:        ae.AttrValue("type"),
			IsOID:       attrBool(ae, "isoid", false),
			IsD:         attrBool(ae, "isd", false),
			Description: ae.AttrValue("description"),
		})
	}
	return out
}

func unmarshalAssocs(parent *xmldom.Node) []*Association {
	rs := parent.FirstElement("relationasocs")
	if rs == nil {
		return nil
	}
	var out []*Association
	for _, re := range rs.ElementsByName("relationasoc") {
		out = append(out, &Association{
			Child:        re.AttrValue("child"),
			Name:         re.AttrValue("name"),
			Description:  re.AttrValue("description"),
			RoleA:        attrMult(re, "rolea", Mult1),
			RoleB:        attrMult(re, "roleb", MultM),
			Completeness: attrBool(re, "completeness", false),
		})
	}
	return out
}

func unmarshalDim(e *xmldom.Node) *DimClass {
	d := &DimClass{
		ID:          e.AttrValue("id"),
		Name:        e.AttrValue("name"),
		Caption:     e.AttrValue("caption"),
		Description: e.AttrValue("description"),
		IsTime:      attrBool(e, "istime", false),
	}
	d.Atts = unmarshalDimAtts(e)
	if ls := e.FirstElement("asoclevels"); ls != nil {
		for _, le := range ls.ElementsByName("asoclevel") {
			l := &Level{
				ID:          le.AttrValue("id"),
				Name:        le.AttrValue("name"),
				Caption:     le.AttrValue("caption"),
				Description: le.AttrValue("description"),
			}
			l.Atts = unmarshalDimAtts(le)
			l.Associations = unmarshalAssocs(le)
			l.Methods = unmarshalMethods(le)
			d.Levels = append(d.Levels, l)
		}
	}
	d.Associations = unmarshalAssocs(e)
	if cs := e.FirstElement("catlevels"); cs != nil {
		for _, ce := range cs.ElementsByName("catlevel") {
			d.CatLevels = append(d.CatLevels, &CatLevel{
				ID:          ce.AttrValue("id"),
				Name:        ce.AttrValue("name"),
				Description: ce.AttrValue("description"),
				Atts:        unmarshalDimAtts(ce),
			})
		}
	}
	d.Methods = unmarshalMethods(e)
	return d
}

func unmarshalCube(e *xmldom.Node) *CubeClass {
	c := &CubeClass{
		ID:          e.AttrValue("id"),
		Name:        e.AttrValue("name"),
		Description: e.AttrValue("description"),
		Fact:        e.AttrValue("factclass"),
	}
	if ms := e.FirstElement("measures"); ms != nil {
		for _, me := range ms.ElementsByName("measure") {
			c.Measures = append(c.Measures, me.AttrValue("factatt"))
		}
	}
	if ss := e.FirstElement("slices"); ss != nil {
		for _, se := range ss.ElementsByName("slice") {
			c.Slices = append(c.Slices, &Slice{
				Att:      se.AttrValue("att"),
				Operator: Operator(se.AttrValue("operator")),
				Value:    se.AttrValue("value"),
			})
		}
	}
	if ds := e.FirstElement("dices"); ds != nil {
		for _, de := range ds.ElementsByName("dice") {
			c.Dices = append(c.Dices, &Dice{
				DimClass: de.AttrValue("dimclass"),
				Level:    de.AttrValue("level"),
			})
		}
	}
	return c
}
