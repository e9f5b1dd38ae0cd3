package workflow

import (
	"context"
	"fmt"
	"sort"
)

// portMap binds an exposed port of a group to an inner task's port.
type portMap struct {
	Outer string // exposed name
	Task  string // inner task ID
	Port  string // inner port name
}

// groupUnit wraps a whole graph as a single unit — the paper's "service
// hierarchy (i.e. a single service made up of a number of others and made
// available as a single interface)" (§2).
type groupUnit struct {
	GroupName string
	Graph     *Graph
	InMap     []portMap
	OutMap    []portMap
}

// Name implements Unit.
func (u *groupUnit) Name() string { return u.GroupName }

// Inputs implements Unit.
func (u *groupUnit) Inputs() []string {
	out := make([]string, 0, len(u.InMap))
	for _, m := range u.InMap {
		out = append(out, m.Outer)
	}
	sort.Strings(out)
	return out
}

// Outputs implements Unit.
func (u *groupUnit) Outputs() []string {
	out := make([]string, 0, len(u.OutMap))
	for _, m := range u.OutMap {
		out = append(out, m.Outer)
	}
	sort.Strings(out)
	return out
}

// Run implements Unit: exposed inputs become inner task params, the inner
// graph runs, and mapped outputs are collected.
func (u *groupUnit) Run(ctx context.Context, in Values) (Values, error) {
	for _, m := range u.InMap {
		t := u.Graph.Task(m.Task)
		if t == nil {
			return nil, fmt.Errorf("workflow: group %s maps input %q to unknown task %q",
				u.GroupName, m.Outer, m.Task)
		}
		if v, ok := in[m.Outer]; ok {
			t.Params[m.Port] = v
		}
	}
	res, err := NewEngine().Run(ctx, u.Graph)
	if err != nil {
		return nil, fmt.Errorf("workflow: group %s: %w", u.GroupName, err)
	}
	out := Values{}
	for _, m := range u.OutMap {
		v, ok := res.Value(m.Task, m.Port)
		if !ok {
			return nil, fmt.Errorf("workflow: group %s: inner %s.%s produced no value",
				u.GroupName, m.Task, m.Port)
		}
		out[m.Outer] = v
	}
	return out, nil
}

// loopUnit repeatedly executes a body unit while Cond returns true on the
// previous iteration's outputs, up to MaxIterations — the iteration support
// §3.1 calls for ("the workflow can involve significant iteration and can
// contain loops"). The body's outputs are fed back as its next inputs.
type loopUnit struct {
	LoopName      string
	Body          Unit
	Cond          func(iteration int, out Values) bool
	MaxIterations int
}

// Name implements Unit.
func (u *loopUnit) Name() string { return u.LoopName }

// Inputs implements Unit.
func (u *loopUnit) Inputs() []string { return u.Body.Inputs() }

// Outputs implements Unit.
func (u *loopUnit) Outputs() []string { return u.Body.Outputs() }

// Run implements Unit.
func (u *loopUnit) Run(ctx context.Context, in Values) (Values, error) {
	if u.MaxIterations <= 0 {
		u.MaxIterations = 100
	}
	cur := in
	var out Values
	for i := 0; i < u.MaxIterations; i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var err error
		out, err = u.Body.Run(ctx, cur)
		if err != nil {
			return nil, fmt.Errorf("workflow: loop %s iteration %d: %w", u.LoopName, i, err)
		}
		if u.Cond == nil || !u.Cond(i, out) {
			return out, nil
		}
		// Feed outputs back into matching inputs for the next pass.
		next := Values{}
		for k, v := range cur {
			next[k] = v
		}
		for k, v := range out {
			next[k] = v
		}
		cur = next
	}
	return out, fmt.Errorf("workflow: loop %s exceeded %d iterations", u.LoopName, u.MaxIterations)
}
