package xpath

import (
	"fmt"
	"sync"

	"goldweb/internal/xmldom"
)

// The shared VM frame: one pooled evaluation stack per transformation,
// carrying both the XPath operand stack and the control frames of a
// stylesheet bytecode program. Embedded expressions evaluate with the
// EvalXxxOn entry points on the caller's frame, so a transform performs
// exactly one frame-pool round trip instead of one per expression.

// CtlFrame is one control frame of a stylesheet program running on the
// shared stack: an apply-templates loop, a template call, a for-each
// loop, an attribute-set list, or an output-capture redirect. The xslt
// bytecode VM defines the Kind values and owns the field semantics; the
// frame lives here so both VMs share one pooled allocation.
type CtlFrame struct {
	Kind uint8
	Ret  int32 // return / loop-head pc
	Site int32 // side-table index of the instruction that pushed the frame
	Idx  int32 // loop iteration cursor
	Prec int   // saved import precedence
	Pos  int   // saved context position
	Size int   // saved context size
	Node *xmldom.Node
	List []*xmldom.Node
	Mode string // saved mode (apply frames)
	Str  string // pending computed name (capture frames)
	Base int32  // the caller's variable-frame base (call, apply and attribute-set frames)
	// Out is the saved output sink of a capture/redirect frame (typed by
	// the xslt VM; opaque here to avoid a dependency cycle).
	Out any
}

// Frame is the pooled per-transformation evaluation state shared by the
// XPath expression VM and the XSLT bytecode VM: the unboxed operand
// stack expressions run on, plus the control-frame stack of the
// stylesheet program. Frames are not safe for concurrent use; obtain one
// with GetFrame and return it with PutFrame.
type Frame struct {
	ops frame
	Ctl []CtlFrame
}

var vmFramePool = sync.Pool{New: func() any {
	return &Frame{ops: frame{stack: make([]irval, 0, 64)}, Ctl: make([]CtlFrame, 0, 32)}
}}

// GetFrame returns an empty shared VM frame from the pool. Release it
// with PutFrame when the evaluation or transformation is done.
func GetFrame() *Frame {
	return vmFramePool.Get().(*Frame)
}

// PutFrame clears a frame (dropping every node and sink reference so
// the pooled value pins nothing) and returns it to the pool.
func PutFrame(f *Frame) {
	f.ops.truncate(0)
	clear(f.Ctl[:cap(f.Ctl)])
	f.Ctl = f.Ctl[:0]
	vmFramePool.Put(f)
}

// PushCtl appends a control frame and returns a pointer to it, valid
// until the next push.
func (f *Frame) PushCtl(cf CtlFrame) *CtlFrame {
	f.Ctl = append(f.Ctl, cf)
	return &f.Ctl[len(f.Ctl)-1]
}

// TopCtl returns the innermost control frame, or nil when none is
// active.
func (f *Frame) TopCtl() *CtlFrame {
	if len(f.Ctl) == 0 {
		return nil
	}
	return &f.Ctl[len(f.Ctl)-1]
}

// PopCtl removes the innermost control frame, clearing it so the backing
// array retains no references.
func (f *Frame) PopCtl() {
	n := len(f.Ctl) - 1
	f.Ctl[n] = CtlFrame{}
	f.Ctl = f.Ctl[:n]
}

// Depth returns the number of active control frames.
func (f *Frame) Depth() int { return len(f.Ctl) }

// reserve grows the operand stack capacity so the next program runs
// without reallocating mid-evaluation.
func (f *Frame) reserve(need int) {
	if free := cap(f.ops.stack) - len(f.ops.stack); free < need {
		grown := make([]irval, len(f.ops.stack), len(f.ops.stack)+need)
		copy(grown, f.ops.stack)
		f.ops.stack = grown
	}
}

// runOn executes the compiled program on the caller's shared frame
// instead of a pooled per-evaluation one.
func (c *Compiled) runOn(ctx *Context, f *Frame) (irval, error) {
	f.reserve(c.prog.maxStack)
	return exec(c.prog, ctx, &f.ops)
}

// EvalOn is Eval on a caller-owned shared frame.
func (c *Compiled) EvalOn(ctx *Context, f *Frame) (Value, error) {
	v, err := c.runOn(ctx, f)
	if err != nil {
		return nil, err
	}
	return v.boxed(), nil
}

// EvalBoolOn is EvalBool on a caller-owned shared frame.
func (c *Compiled) EvalBoolOn(ctx *Context, f *Frame) (bool, error) {
	v, err := c.runOn(ctx, f)
	if err != nil {
		return false, err
	}
	return v.truthy(), nil
}

// EvalStringOn is EvalString on a caller-owned shared frame.
func (c *Compiled) EvalStringOn(ctx *Context, f *Frame) (string, error) {
	v, err := c.runOn(ctx, f)
	if err != nil {
		return "", err
	}
	return v.toStr(), nil
}

// EvalNumberOn is EvalNumber on a caller-owned shared frame.
func (c *Compiled) EvalNumberOn(ctx *Context, f *Frame) (float64, error) {
	v, err := c.runOn(ctx, f)
	if err != nil {
		return 0, err
	}
	return v.toNum(), nil
}

// EvalNodesOn is EvalNodes on a caller-owned shared frame.
func (c *Compiled) EvalNodesOn(ctx *Context, f *Frame) (NodeSet, error) {
	v, err := c.runOn(ctx, f)
	if err != nil {
		return nil, err
	}
	if v.kind != vNodes {
		return nil, fmt.Errorf("xpath: %s does not evaluate to a node-set", c.src)
	}
	return v.nodes, nil
}
