package main

import (
	"embed"
	"fmt"
	"path"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The inputs are frozen into the binary: the benchmark never generates a
// model at run time, so a change to the program's generator or to the
// example corpus cannot move what the benchmark measures.
//
//go:embed testdata/models/*.xml
var modelFS embed.FS

// model is one catalog entry: its name and its revision-0 source, plus
// the template later revisions are cut from.
type model struct {
	name string
	base []byte
	tmpl revisionTemplate
}

// loadModels reads the frozen inputs, sorted by name.
func loadModels() ([]*model, error) {
	ents, err := modelFS.ReadDir("testdata/models")
	if err != nil {
		return nil, err
	}
	var out []*model
	for _, ent := range ents {
		src, err := modelFS.ReadFile(path.Join("testdata/models", ent.Name()))
		if err != nil {
			return nil, err
		}
		tmpl, err := newRevisionTemplate(src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ent.Name(), err)
		}
		out = append(out, &model{name: strings.TrimSuffix(ent.Name(), ".xml"), base: src, tmpl: tmpl})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// source returns the model's source at a revision stamp; stamp 0 is the
// frozen file itself.
func (m *model) source(stamp int) []byte {
	if stamp == 0 {
		return m.base
	}
	return m.tmpl.render(stamp)
}

// revisionTemplate splits a model source around the attributes a
// revision rewrites: lastmodified on the goldmodel, and description on
// the goldmodel and on every fact class. A revision keeps the model's
// classes, and so its page set, and changes only page content.
type revisionTemplate struct {
	parts []string    // static text; slot i sits between parts[i] and parts[i+1]
	slots []slotValue // what each slot holds
}

type slotValue int

const (
	slotDate  slotValue = iota // lastmodified, an xsd:date derived from the stamp
	slotStamp                  // the stamp itself, inside a description
)

var (
	revisedTag = regexp.MustCompile(`<(goldmodel|factclass)(\s[^>]*?)?(/?)>`)
	tagAttr    = regexp.MustCompile(`\s+([A-Za-z_][-A-Za-z0-9_.:]*)="([^"]*)"`)
)

func newRevisionTemplate(src []byte) (revisionTemplate, error) {
	var t revisionTemplate
	text := string(src)
	var cur strings.Builder
	last := 0
	tags := revisedTag.FindAllStringSubmatchIndex(text, -1)
	if len(tags) < 2 {
		return t, fmt.Errorf("want a goldmodel and at least one factclass, found %d revisable tags", len(tags))
	}
	for _, m := range tags {
		cur.WriteString(text[last:m[0]])
		name := text[m[2]:m[3]]
		attrs := ""
		if m[4] >= 0 {
			attrs = text[m[4]:m[5]]
		}
		parsed := tagAttr.FindAllStringSubmatch(attrs, -1)
		if rest := tagAttr.ReplaceAllString(attrs, ""); strings.TrimSpace(rest) != "" {
			return t, fmt.Errorf("<%s> has attributes the template cannot parse: %q", name, rest)
		}
		desc := ""
		cur.WriteString("<" + name)
		for _, a := range parsed {
			switch a[1] {
			case "description":
				desc = a[2] + " "
			case "lastmodified":
			default:
				cur.WriteString(" " + a[1] + `="` + a[2] + `"`)
			}
		}
		if name == "goldmodel" {
			cur.WriteString(` lastmodified="`)
			t.parts = append(t.parts, cur.String())
			t.slots = append(t.slots, slotDate)
			cur.Reset()
			cur.WriteString(`"`)
		}
		cur.WriteString(` description="` + desc + `(revision `)
		t.parts = append(t.parts, cur.String())
		t.slots = append(t.slots, slotStamp)
		cur.Reset()
		cur.WriteString(`)"` + text[m[6]:m[7]] + ">")
		last = m[1]
	}
	cur.WriteString(text[last:])
	t.parts = append(t.parts, cur.String())
	return t, nil
}

// revisionEpoch anchors the lastmodified dates of revisions.
var revisionEpoch = time.Date(2002, 1, 1, 0, 0, 0, 0, time.UTC)

func (t revisionTemplate) render(stamp int) []byte {
	date := revisionEpoch.AddDate(0, 0, stamp%3650).Format("2006-01-02")
	num := strconv.Itoa(stamp)
	n := len(t.slots) * len(date)
	for _, p := range t.parts {
		n += len(p)
	}
	out := make([]byte, 0, n)
	for i, p := range t.parts {
		out = append(out, p...)
		if i < len(t.slots) {
			if t.slots[i] == slotDate {
				out = append(out, date...)
			} else {
				out = append(out, num...)
			}
		}
	}
	return out
}
