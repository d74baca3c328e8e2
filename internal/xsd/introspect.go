package xsd

// Read-only accessors used by internal/analysis to reason about the
// schema without reaching into unexported validator state.

// IsID reports whether values of the type are DTD-style IDs (the type
// restricts xsd:ID).
func (st *SimpleType) IsID() bool {
	return st != nil && st.rootKind() == btID
}

// IsIDRef reports whether values of the type reference IDs (the type
// restricts xsd:IDREF or xsd:IDREFS).
func (st *SimpleType) IsIDRef() bool {
	if st == nil {
		return false
	}
	k := st.rootKind()
	return k == btIDREF || k == btIDREFS
}

// SubstitutionMembers returns the transitive substitution-group members
// of the named head element, sorted by name (nil when the name heads no
// group). Abstract members are included; they organize the hierarchy but
// cannot appear in instances.
func (s *Schema) SubstitutionMembers(head string) []*ElementDecl {
	members := s.substMembers[head]
	if len(members) == 0 {
		return nil
	}
	return append([]*ElementDecl(nil), members...)
}

// SelectorSource returns the XPath text of the constraint's selector.
func (ic *IdentityConstraint) SelectorSource() string { return ic.selectorSrc }

// FieldSources returns the XPath texts of the constraint's fields.
func (ic *IdentityConstraint) FieldSources() []string {
	return append([]string(nil), ic.fieldSrcs...)
}
