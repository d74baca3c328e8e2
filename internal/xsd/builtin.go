package xsd

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// builtinKind enumerates the supported built-in simple types.
type builtinKind uint8

const (
	btNone builtinKind = iota
	btString
	btNormalizedString
	btToken
	btBoolean
	btDecimal
	btFloat
	btDouble
	btInteger
	btInt
	btLong
	btShort
	btByte
	btNonNegativeInteger
	btPositiveInteger
	btNonPositiveInteger
	btNegativeInteger
	btUnsignedInt
	btDate
	btDateTime
	btTime
	btGYear
	btID
	btIDREF
	btIDREFS
	btNCName
	btName
	btNMTOKEN
	btAnyURI
	btQName
	btLanguage
	btAnySimpleType
)

var builtinByName = map[string]builtinKind{
	"string":             btString,
	"normalizedString":   btNormalizedString,
	"token":              btToken,
	"boolean":            btBoolean,
	"decimal":            btDecimal,
	"float":              btFloat,
	"double":             btDouble,
	"integer":            btInteger,
	"int":                btInt,
	"long":               btLong,
	"short":              btShort,
	"byte":               btByte,
	"nonNegativeInteger": btNonNegativeInteger,
	"positiveInteger":    btPositiveInteger,
	"nonPositiveInteger": btNonPositiveInteger,
	"negativeInteger":    btNegativeInteger,
	"unsignedInt":        btUnsignedInt,
	"date":               btDate,
	"dateTime":           btDateTime,
	"time":               btTime,
	"gYear":              btGYear,
	"ID":                 btID,
	"IDREF":              btIDREF,
	"IDREFS":             btIDREFS,
	"NCName":             btNCName,
	"Name":               btName,
	"NMTOKEN":            btNMTOKEN,
	"anyURI":             btAnyURI,
	"QName":              btQName,
	"language":           btLanguage,
	"anySimpleType":      btAnySimpleType,
}

// builtinType returns the SimpleType for a built-in name, or nil.
func builtinType(name string) *SimpleType {
	kind, ok := builtinByName[name]
	if !ok {
		return nil
	}
	return &SimpleType{Name: name, builtin: kind}
}

// rootKind resolves the built-in kind at the bottom of a restriction
// chain.
func (st *SimpleType) rootKind() builtinKind {
	for cur := st; cur != nil; cur = cur.base {
		if cur.builtin != btNone {
			return cur.builtin
		}
	}
	return btString
}

// normalize applies the whitespace facet appropriate to the type.
func (st *SimpleType) normalize(v string) string {
	ws := ""
	for cur := st; cur != nil && ws == ""; cur = cur.base {
		ws = cur.WhiteSpace
	}
	if ws == "" {
		switch {
		case st.isList() || st.hasMembers():
			// List and union varieties collapse; union members
			// re-normalize per their own whitespace facet.
			ws = "collapse"
		default:
			switch st.rootKind() {
			case btString:
				ws = "preserve"
			case btNormalizedString:
				ws = "replace"
			default:
				ws = "collapse"
			}
		}
	}
	switch ws {
	case "replace":
		return strings.Map(func(r rune) rune {
			if r == '\t' || r == '\n' || r == '\r' {
				return ' '
			}
			return r
		}, v)
	case "collapse":
		if collapsed(v) {
			return v
		}
		return strings.Join(strings.Fields(v), " ")
	}
	return v
}

// collapsed reports whether collapsing would leave v unchanged, the
// common case of attribute values: ASCII without control whitespace,
// with no leading, trailing or repeated space. Anything else, including
// every non-ASCII value, takes the general path.
func collapsed(v string) bool {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; {
		case c >= 0x80, c == '\t', c == '\n', c == '\v', c == '\f', c == '\r':
			return false
		case c == ' ':
			if i == 0 || i == len(v)-1 || v[i+1] == ' ' {
				return false
			}
		}
	}
	return true
}

// checkBuiltin validates a (whitespace-normalized) lexical value against a
// built-in kind.
func checkBuiltin(kind builtinKind, v string) error {
	switch kind {
	case btString, btNormalizedString, btToken, btAnyURI, btAnySimpleType:
		return nil
	case btBoolean:
		switch v {
		case "true", "false", "0", "1":
			return nil
		}
		return fmt.Errorf("%q is not a valid boolean", v)
	case btDecimal, btFloat, btDouble:
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			return fmt.Errorf("%q is not a valid %s", v, kindName(kind))
		}
		return nil
	case btInteger, btInt, btLong, btShort, btByte, btNonNegativeInteger,
		btPositiveInteger, btNonPositiveInteger, btNegativeInteger, btUnsignedInt:
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("%q is not a valid %s", v, kindName(kind))
		}
		return checkIntRange(kind, n, v)
	case btDate:
		if _, err := time.Parse("2006-01-02", v); err != nil {
			return fmt.Errorf("%q is not a valid date (want CCYY-MM-DD)", v)
		}
		return nil
	case btDateTime:
		for _, layout := range []string{"2006-01-02T15:04:05", "2006-01-02T15:04:05Z07:00"} {
			if _, err := time.Parse(layout, v); err == nil {
				return nil
			}
		}
		return fmt.Errorf("%q is not a valid dateTime", v)
	case btTime:
		if _, err := time.Parse("15:04:05", v); err != nil {
			return fmt.Errorf("%q is not a valid time", v)
		}
		return nil
	case btGYear:
		if len(v) != 4 {
			return fmt.Errorf("%q is not a valid gYear", v)
		}
		if _, err := strconv.Atoi(v); err != nil {
			return fmt.Errorf("%q is not a valid gYear", v)
		}
		return nil
	case btID, btIDREF, btNCName:
		if !isNCName(v) {
			return fmt.Errorf("%q is not a valid NCName", v)
		}
		return nil
	case btIDREFS:
		if len(strings.Fields(v)) == 0 {
			return fmt.Errorf("IDREFS must contain at least one IDREF")
		}
		for _, tok := range strings.Fields(v) {
			if !isNCName(tok) {
				return fmt.Errorf("%q is not a valid IDREF", tok)
			}
		}
		return nil
	case btName, btQName:
		if !isXMLName(v) {
			return fmt.Errorf("%q is not a valid name", v)
		}
		return nil
	case btNMTOKEN:
		if v == "" {
			return fmt.Errorf("empty NMTOKEN")
		}
		for _, r := range v {
			if !isNameRune(r, false) {
				return fmt.Errorf("%q is not a valid NMTOKEN", v)
			}
		}
		return nil
	case btLanguage:
		if v == "" || len(v) > 35 {
			return fmt.Errorf("%q is not a valid language", v)
		}
		return nil
	}
	return nil
}

func kindName(kind builtinKind) string {
	for name, k := range builtinByName {
		if k == kind {
			return name
		}
	}
	return "value"
}

func checkIntRange(kind builtinKind, n int64, v string) error {
	fail := func(what string) error {
		return fmt.Errorf("%q is out of range for %s", v, what)
	}
	switch kind {
	case btInt:
		if n < math.MinInt32 || n > math.MaxInt32 {
			return fail("int")
		}
	case btShort:
		if n < math.MinInt16 || n > math.MaxInt16 {
			return fail("short")
		}
	case btByte:
		if n < math.MinInt8 || n > math.MaxInt8 {
			return fail("byte")
		}
	case btNonNegativeInteger:
		if n < 0 {
			return fail("nonNegativeInteger")
		}
	case btPositiveInteger:
		if n <= 0 {
			return fail("positiveInteger")
		}
	case btNonPositiveInteger:
		if n > 0 {
			return fail("nonPositiveInteger")
		}
	case btNegativeInteger:
		if n >= 0 {
			return fail("negativeInteger")
		}
	case btUnsignedInt:
		if n < 0 || n > math.MaxUint32 {
			return fail("unsignedInt")
		}
	}
	return nil
}

func isNameRune(r rune, start bool) bool {
	if r == '_' || unicode.IsLetter(r) {
		return true
	}
	if start {
		return false
	}
	return r == '-' || r == '.' || unicode.IsDigit(r)
}

// isNCName reports whether v is a colon-free XML name.
func isNCName(v string) bool {
	if v == "" {
		return false
	}
	for i, r := range v {
		if !isNameRune(r, i == 0) {
			return false
		}
	}
	return true
}

// isXMLName allows a single colon (QName form).
func isXMLName(v string) bool {
	if v == "" {
		return false
	}
	parts := strings.Split(v, ":")
	if len(parts) > 2 {
		return false
	}
	for _, p := range parts {
		if !isNCName(p) {
			return false
		}
	}
	return true
}
