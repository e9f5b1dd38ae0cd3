package workflow

import (
	"fmt"
	"sort"
)

// Task is a placed unit in a workflow graph. Params supply values for input
// nodes that are not fed by a cable (the property panels of the Triana
// workspace).
type Task struct {
	ID     string
	Unit   Unit
	Params Values
}

// cable connects an output node of one task to an input node of another —
// "dragging a cable from the output node ... to the input node" (§4).
type cable struct {
	FromTask, FromPort string
	ToTask, ToPort     string
}

// Graph is a composed workflow.
type Graph struct {
	Name   string
	tasks  map[string]*Task
	order  []string // insertion order, for deterministic serialisation
	cables []cable
}

// NewGraph returns an empty workflow.
func NewGraph(name string) *Graph {
	return &Graph{Name: name, tasks: map[string]*Task{}}
}

// Add places a unit as a task; the ID must be unique.
func (g *Graph) Add(id string, u Unit) (*Task, error) {
	if id == "" {
		return nil, fmt.Errorf("workflow: empty task id")
	}
	if _, dup := g.tasks[id]; dup {
		return nil, fmt.Errorf("workflow: duplicate task id %q", id)
	}
	t := &Task{ID: id, Unit: u, Params: Values{}}
	g.tasks[id] = t
	g.order = append(g.order, id)
	return t, nil
}

// MustAdd is Add panicking on error, for programmatic graph construction.
func (g *Graph) MustAdd(id string, u Unit) *Task {
	t, err := g.Add(id, u)
	if err != nil {
		panic(err)
	}
	return t
}

// Task returns the task with the given ID, or nil.
func (g *Graph) Task(id string) *Task { return g.tasks[id] }

// Tasks returns the task IDs in insertion order.
func (g *Graph) Tasks() []string { return append([]string(nil), g.order...) }

// Cables returns a copy of the cable list.
func (g *Graph) Cables() []cable { return append([]cable(nil), g.cables...) }

// Connect runs a cable from an output node to an input node, validating
// that both ends exist and that the input node is not already fed.
func (g *Graph) Connect(fromTask, fromPort, toTask, toPort string) error {
	from, ok := g.tasks[fromTask]
	if !ok {
		return fmt.Errorf("workflow: no task %q", fromTask)
	}
	to, ok := g.tasks[toTask]
	if !ok {
		return fmt.Errorf("workflow: no task %q", toTask)
	}
	if !contains(from.Unit.Outputs(), fromPort) {
		return fmt.Errorf("workflow: task %q (%s) has no output node %q (has %v)",
			fromTask, from.Unit.Name(), fromPort, from.Unit.Outputs())
	}
	if !contains(to.Unit.Inputs(), toPort) {
		return fmt.Errorf("workflow: task %q (%s) has no input node %q (has %v)",
			toTask, to.Unit.Name(), toPort, to.Unit.Inputs())
	}
	for _, c := range g.cables {
		if c.ToTask == toTask && c.ToPort == toPort {
			return fmt.Errorf("workflow: input node %s.%s is already connected", toTask, toPort)
		}
	}
	g.cables = append(g.cables, cable{fromTask, fromPort, toTask, toPort})
	return nil
}

// MustConnect is Connect panicking on error.
func (g *Graph) MustConnect(fromTask, fromPort, toTask, toPort string) {
	if err := g.Connect(fromTask, fromPort, toTask, toPort); err != nil {
		panic(err)
	}
}

// predecessors returns the tasks feeding t via cables.
func (g *Graph) predecessors(id string) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range g.cables {
		if c.ToTask == id && !seen[c.FromTask] {
			seen[c.FromTask] = true
			out = append(out, c.FromTask)
		}
	}
	sort.Strings(out)
	return out
}

// Validate checks the graph is executable: every cabled endpoint exists and
// the cable relation is acyclic.
func (g *Graph) Validate() error {
	_, err := g.TopoOrder()
	return err
}

// TopoOrder returns the tasks in a deterministic topological order: at
// each step the earliest added task none of whose cables is still
// pending. It fails as Validate does.
func (g *Graph) TopoOrder() ([]string, error) {
	indeg := make(map[string]int, len(g.tasks))
	for _, c := range g.cables {
		if _, ok := g.tasks[c.FromTask]; !ok {
			return nil, fmt.Errorf("workflow: cable from unknown task %q", c.FromTask)
		}
		if _, ok := g.tasks[c.ToTask]; !ok {
			return nil, fmt.Errorf("workflow: cable to unknown task %q", c.ToTask)
		}
		indeg[c.ToTask]++
	}
	out := make([]string, 0, len(g.order))
	remaining := append([]string(nil), g.order...)
	for len(remaining) > 0 {
		progressed := false
		for i, id := range remaining {
			if indeg[id] == 0 {
				out = append(out, id)
				remaining = append(remaining[:i], remaining[i+1:]...)
				for _, c := range g.cables {
					if c.FromTask == id {
						indeg[c.ToTask]--
					}
				}
				progressed = true
				break
			}
		}
		if !progressed {
			return nil, fmt.Errorf("workflow: graph %q contains a cycle", g.Name)
		}
	}
	return out, nil
}

func contains(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
