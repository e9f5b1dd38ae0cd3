package workflow

import (
	"context"
	"fmt"
)

// This file implements the design-pattern library the paper cites (ref [9],
// "Pattern operators for grid environments"): structural patterns that
// build common graph shapes and behavioural operators that manipulate an
// existing workflow.

// Pipeline composes units into a linear chain, cabling each unit's port
// `port` to the next. It is the most common structural pattern in the
// paper's discovery pipelines.
func Pipeline(name, port string, units ...Unit) (*Graph, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("workflow: empty pipeline")
	}
	g := NewGraph(name)
	for i, u := range units {
		if _, err := g.Add(fmt.Sprintf("stage%d", i), u); err != nil {
			return nil, err
		}
	}
	for i := 0; i+1 < len(units); i++ {
		if err := g.Connect(fmt.Sprintf("stage%d", i), port, fmt.Sprintf("stage%d", i+1), port); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Farm builds the master/worker structural pattern: a source task fans out
// to n replicas of worker, whose outputs feed a collector.
func Farm(name string, source Unit, worker func(i int) Unit, n int, collector Unit,
	srcPort, workPort, collectPrefix string) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("workflow: farm needs at least one worker")
	}
	g := NewGraph(name)
	if _, err := g.Add("source", source); err != nil {
		return nil, err
	}
	if _, err := g.Add("collect", collector); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("worker%d", i)
		if _, err := g.Add(id, worker(i)); err != nil {
			return nil, err
		}
		if err := g.Connect("source", srcPort, id, workPort); err != nil {
			return nil, err
		}
		if err := g.Connect(id, workPort, "collect", fmt.Sprintf("%s%d", collectPrefix, i)); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Replace swaps the unit of a task for another with compatible ports — the
// behavioural "replace" operator (e.g. substituting one classifier service
// for another in a fixed pipeline).
func Replace(g *Graph, taskID string, u Unit) error {
	t := g.Task(taskID)
	if t == nil {
		return fmt.Errorf("workflow: no task %q", taskID)
	}
	// Every cabled port must exist on the replacement.
	for _, c := range g.Cables() {
		if c.ToTask == taskID && !contains(u.Inputs(), c.ToPort) {
			return fmt.Errorf("workflow: replacement %s lacks input node %q", u.Name(), c.ToPort)
		}
		if c.FromTask == taskID && !contains(u.Outputs(), c.FromPort) {
			return fmt.Errorf("workflow: replacement %s lacks output node %q", u.Name(), c.FromPort)
		}
	}
	t.Unit = u
	return nil
}

// Replicate clones a task n times (IDs <id>-rep1...), duplicating its
// incoming cables — the behavioural "replicate" operator used to run the
// same analysis over several services.
func Replicate(g *Graph, taskID string, n int) ([]string, error) {
	t := g.Task(taskID)
	if t == nil {
		return nil, fmt.Errorf("workflow: no task %q", taskID)
	}
	var ids []string
	incoming := []cable{}
	for _, c := range g.Cables() {
		if c.ToTask == taskID {
			incoming = append(incoming, c)
		}
	}
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("%s-rep%d", taskID, i)
		nt, err := g.Add(id, t.Unit)
		if err != nil {
			return nil, err
		}
		for k, v := range t.Params {
			nt.Params[k] = v
		}
		for _, c := range incoming {
			if err := g.Connect(c.FromTask, c.FromPort, id, c.ToPort); err != nil {
				return nil, err
			}
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Embed inserts a whole graph as a single grouped task — the structural
// operator building service hierarchies.
func Embed(g *Graph, taskID string, inner *Graph, inMap, outMap []portMap) (*Task, error) {
	group := &groupUnit{GroupName: inner.Name, Graph: inner, InMap: inMap, OutMap: outMap}
	return g.Add(taskID, group)
}

// Probe attaches a viewer to an output node and returns it — the
// behavioural inspection operator (monitoring a cable without altering the
// flow).
func Probe(g *Graph, fromTask, fromPort string) (*ViewerUnit, error) {
	v := &ViewerUnit{UnitName: "probe-" + fromTask + "-" + fromPort, Port: fromPort}
	id := "probe-" + fromTask + "-" + fromPort
	if _, err := g.Add(id, v); err != nil {
		return nil, err
	}
	if err := g.Connect(fromTask, fromPort, id, fromPort); err != nil {
		return nil, err
	}
	return v, nil
}

// Broadcast is a unit that copies one input port to several named outputs,
// useful when one produced value feeds many consumers that expect distinct
// port names.
func Broadcast(name, in string, outs ...string) Unit {
	return &FuncUnit{
		UnitName: name,
		In:       []string{in},
		Out:      outs,
		Fn: func(ctx context.Context, v Values) (Values, error) {
			val, ok := v[in]
			if !ok {
				return nil, fmt.Errorf("workflow: broadcast %s: missing %q", name, in)
			}
			out := Values{}
			for _, o := range outs {
				out[o] = val
			}
			return out, nil
		},
	}
}

// Rename is a unit that forwards a value from one port name to another,
// bridging services whose part names differ.
func Rename(name, from, to string) Unit {
	return &FuncUnit{
		UnitName: name,
		In:       []string{from},
		Out:      []string{to},
		Fn: func(ctx context.Context, v Values) (Values, error) {
			val, ok := v[from]
			if !ok {
				return nil, fmt.Errorf("workflow: rename %s: missing %q", name, from)
			}
			return Values{to: val}, nil
		},
	}
}
