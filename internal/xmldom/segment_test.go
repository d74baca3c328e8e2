package xmldom

import (
	"bytes"
	"testing"
)

// recordings used by the equivalence tests: each emits a static fragment
// the way compiled stylesheet literals would.
var segmentRecordings = map[string]func(Emitter){
	"text-only": func(e Emitter) {
		e.Text("hello ", false)
		e.Text("<raw>", true)
	},
	"element": func(e Emitter) {
		e.BeginElement("", "", "div")
		e.Attr("", "", "class", "box")
		e.Attr("", "", "id", "d&1")
		e.Text("payload", false)
		e.EndElement()
	},
	"nested-structured": func(e Emitter) {
		e.BeginElement("", "", "ul")
		e.BeginElement("", "", "li")
		e.Text("one", false)
		e.EndElement()
		e.BeginElement("", "", "li")
		e.Text("two", false)
		e.EndElement()
		e.EndElement()
	},
	"mixed-top": func(e Emitter) {
		e.Comment(" c ")
		e.PI("target", "data")
		e.Text("  ", false) // whitespace-only top-level text
		e.BeginElement("p", "urn:x", "note")
		e.EndElement()
	},
	"prefixed-attrs": func(e Emitter) {
		e.BeginElement("", "", "a")
		e.Attr("x", "urn:x", "k", "v")
		e.BeginElement("", "", "b")
		e.Attr("", "", "n", "w")
		e.EndElement()
		e.EndElement()
	},
}

// wrapped drives a recording into out twice — once inside an open element
// that already has an attribute, once at the top level — exercising the
// enclosing-element bookkeeping paths.
func emitWrapped(out Emitter, emit func(Emitter)) {
	out.BeginElement("", "", "root")
	out.Attr("", "", "pre", "1")
	emit(out)
	// Attribute set after the segment content: forces the arena
	// relocation path on the tape emitter.
	out.Attr("", "", "post", "2")
	out.EndElement()
	emit(out)
}

func TestAppendSegmentEquivalence(t *testing.T) {
	for name, rec := range segmentRecordings {
		seg := RecordSegment(rec)
		for _, opts := range []WriteOptions{
			{Method: "xml", OmitDecl: true},
			{Method: "xml", OmitDecl: true, Indent: "  "},
			{Method: "html"},
		} {
			// Reference: every event emitted individually.
			want := NewByteEmitter()
			emitWrapped(want, rec)
			wantBytes := want.AppendSerialized(nil, opts)
			want.Release()

			// Bulk: the pre-recorded segment appended in one copy.
			got := NewByteEmitter()
			emitWrapped(got, func(e Emitter) { e.(*ByteEmitter).AppendSegment(seg) })
			gotBytes := got.AppendSerialized(nil, opts)
			got.Release()

			if !bytes.Equal(wantBytes, gotBytes) {
				t.Errorf("%s (%+v): AppendSegment diverges\nwant %q\ngot  %q",
					name, opts, wantBytes, gotBytes)
			}
		}
	}
}

func TestSegmentReplayTree(t *testing.T) {
	for name, rec := range segmentRecordings {
		seg := RecordSegment(rec)

		wantDoc := NewDocument()
		emitWrapped(NewTreeEmitter(wantDoc), rec)

		gotDoc := NewDocument()
		te := NewTreeEmitter(gotDoc)
		emitWrapped(te, func(e Emitter) { seg.Replay(e) })

		opts := WriteOptions{Method: "xml", OmitDecl: true}
		want := SerializeToString(wantDoc, opts)
		got := SerializeToString(gotDoc, opts)
		if want != got {
			t.Errorf("%s: Replay diverges\nwant %q\ngot  %q", name, want, got)
		}
	}
}

func TestRecordSegmentUnbalancedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unbalanced recording")
		}
	}()
	RecordSegment(func(e Emitter) { e.BeginElement("", "", "open") })
}
