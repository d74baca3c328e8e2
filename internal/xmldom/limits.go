package xmldom

import (
	"context"
	"fmt"
)

// Limits bound the resources a single Parse call may consume, so a
// malicious or malformed document cannot exhaust the process (deeply
// nested elements overflow recursion, attribute bombs trigger the
// quadratic duplicate check, oversized inputs blow memory). A field
// that is zero or negative means "no limit for this axis".
type Limits struct {
	// MaxDepth caps element nesting depth.
	MaxDepth int
	// MaxInput caps the input size in bytes.
	MaxInput int
	// MaxAttrs caps the number of attributes on a single element.
	MaxAttrs int
	// Cancel, when non-nil, aborts the parse shortly after the channel
	// is closed (polled every few hundred elements). ParseContext wires
	// a context's Done channel here so a catalog reload that is being
	// torn down does not keep parsing a huge document.
	Cancel <-chan struct{}
}

// DefaultLimits are the limits Parse and ParseString apply. They are
// far above anything a real multidimensional model produces (the
// deepest documents of the workload sweeps nest a few dozen levels)
// while still rejecting pathological inputs such as a 10k-deep nest.
var DefaultLimits = Limits{
	MaxDepth: 4096,
	MaxInput: 64 << 20, // 64 MiB
	MaxAttrs: 1024,
}

// ParseWithLimits is Parse with explicit resource limits.
func ParseWithLimits(src []byte, lim Limits) (*Node, error) {
	if err := checkInputSize(len(src), lim); err != nil {
		return nil, err
	}
	return parse(string(src), lim)
}

// ParseStringWithLimits is ParseWithLimits for string input. The
// document's strings share src's bytes.
func ParseStringWithLimits(src string, lim Limits) (*Node, error) {
	if err := checkInputSize(len(src), lim); err != nil {
		return nil, err
	}
	return parse(src, lim)
}

func checkInputSize(n int, lim Limits) error {
	if lim.MaxInput > 0 && n > lim.MaxInput {
		return &ParseError{Line: 1, Col: 1,
			Msg: fmt.Sprintf("input is %d bytes, exceeds the %d byte limit", n, lim.MaxInput)}
	}
	return nil
}

// ParseContext is ParseWithLimits under a context: when ctx is
// canceled the parse aborts (checked periodically) and the context's
// error is returned instead of a positioned ParseError.
func ParseContext(ctx context.Context, src []byte, lim Limits) (*Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lim.Cancel = ctx.Done()
	doc, err := ParseWithLimits(src, lim)
	if err != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return doc, err
}
