package xmldom

import "strings"

// Segment is a pre-recorded, balanced fragment of result-construction
// events: the compile-time form of a static literal run in a stylesheet
// (literal text and literal elements whose attributes carry no
// expressions). The XSLT bytecode compiler records each such run once
// with RecordSegment; at transform time the whole run is appended to a
// ByteEmitter tape with one bulk copy (AppendSegment) instead of
// re-emitting every event, or replayed through the Emitter interface for
// any other sink (Replay): a result-tree fragment's TreeEmitter, a text
// capture, or a targeted run's discard sink.
//
// A Segment is immutable after RecordSegment and safe to share between
// concurrent transformations.
type Segment struct {
	events []emitEvent
	attrs  []emitAttr
	// Top-level summary flags, precomputed so AppendSegment can update
	// the enclosing open element's bookkeeping without scanning:
	topAny    bool // the segment has at least one top-level event
	topStruct bool // … including an element, comment or PI
	topText   bool // … including non-whitespace text
}

// RecordSegment runs record against a scratch tape emitter and freezes
// the recorded events as a Segment. The recording must be balanced
// (every BeginElement closed); RecordSegment panics otherwise, since an
// unbalanced segment cannot be appended mid-tape.
func RecordSegment(record func(Emitter)) *Segment {
	b := &ByteEmitter{}
	record(b)
	if len(b.open) != 0 {
		panic("xmldom: RecordSegment: unbalanced recording")
	}
	s := &Segment{events: b.events, attrs: b.attrs}
	depth := 0
	for i := range s.events {
		ev := &s.events[i]
		switch ev.kind {
		case evBegin:
			if depth == 0 {
				s.topAny, s.topStruct = true, true
			}
			depth++
		case evEnd:
			depth--
		case evComment, evPI:
			if depth == 0 {
				s.topAny, s.topStruct = true, true
			}
		case evText:
			if depth == 0 {
				s.topAny = true
				if !s.topText && strings.TrimSpace(ev.s1) != "" {
					s.topText = true
				}
			}
		}
	}
	return s
}

// AppendSegment bulk-appends a recorded segment to the tape: one event
// copy and one attribute-arena copy with the attribute spans rebased,
// plus a single bookkeeping update on the enclosing open element. The
// resulting tape is identical to replaying the segment event by event.
func (b *ByteEmitter) AppendSegment(s *Segment) {
	if p := b.top(); p != nil && s.topAny {
		p.hasContent = true
		if s.topStruct {
			p.childStruct = true
		}
		if s.topText {
			p.childText = true
		}
	}
	base := int32(len(b.attrs))
	b.attrs = append(b.attrs, s.attrs...)
	n := len(b.events)
	b.events = append(b.events, s.events...)
	if base != 0 {
		for i := n; i < len(b.events); i++ {
			if ev := &b.events[i]; ev.kind == evBegin {
				ev.a0 += base
				ev.a1 += base
			}
		}
	}
}

// Replay re-emits the segment through the Emitter interface, for sinks
// that are not ByteEmitters (result-tree builders, text capture). The
// call sequence matches the original recording exactly: BeginElement,
// its attributes, children, EndElement.
func (s *Segment) Replay(e Emitter) {
	for i := range s.events {
		ev := &s.events[i]
		switch ev.kind {
		case evBegin:
			e.BeginElement(ev.s1, ev.s2, ev.s3)
			for _, a := range s.attrs[ev.a0:ev.a1] {
				e.Attr(a.prefix, a.uri, a.name, a.value)
			}
		case evEnd:
			e.EndElement()
		case evText:
			e.Text(ev.s1, ev.flags&efRaw != 0)
		case evComment:
			e.Comment(ev.s1)
		case evPI:
			e.PI(ev.s1, ev.s2)
		}
	}
}
