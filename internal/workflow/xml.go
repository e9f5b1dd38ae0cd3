package workflow

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
)

// The workflow XML format mirrors Triana's "export the workflow graph in
// XML" capability (§2): tasks with their unit specs and params, plus
// cables.

type xmlParam struct {
	Name  string `xml:"name,attr"`
	Value string `xml:",chardata"`
}

type xmlConfig struct {
	Name  string `xml:"name,attr"`
	Value string `xml:",chardata"`
}

type xmlUnit struct {
	Kind   string      `xml:"kind,attr"`
	Config []xmlConfig `xml:"config"`
}

type xmlTask struct {
	ID     string     `xml:"id,attr"`
	Unit   xmlUnit    `xml:"unit"`
	Params []xmlParam `xml:"param"`
}

type xmlCable struct {
	FromTask string `xml:"fromTask,attr"`
	FromPort string `xml:"fromPort,attr"`
	ToTask   string `xml:"toTask,attr"`
	ToPort   string `xml:"toPort,attr"`
}

type xmlGraph struct {
	XMLName xml.Name   `xml:"workflow"`
	Name    string     `xml:"name,attr"`
	Tasks   []xmlTask  `xml:"task"`
	Cables  []xmlCable `xml:"cable"`
}

// MarshalXML renders the graph as workflow XML. Every unit must implement
// Specced (built-in kinds do); custom units that don't are rejected.
func MarshalXML(g *Graph) ([]byte, error) {
	xg := xmlGraph{Name: g.Name}
	for _, id := range g.Tasks() {
		t := g.Task(id)
		sp, ok := t.Unit.(Specced)
		if !ok {
			return nil, fmt.Errorf("workflow: unit %s of task %q is not serialisable", t.Unit.Name(), id)
		}
		spec := sp.Spec()
		xt := xmlTask{ID: id, Unit: xmlUnit{Kind: spec.Kind}}
		keys := make([]string, 0, len(spec.Config))
		for k := range spec.Config {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			xt.Unit.Config = append(xt.Unit.Config, xmlConfig{Name: k, Value: spec.Config[k]})
		}
		pkeys := make([]string, 0, len(t.Params))
		for k := range t.Params {
			pkeys = append(pkeys, k)
		}
		sort.Strings(pkeys)
		for _, k := range pkeys {
			xt.Params = append(xt.Params, xmlParam{Name: k, Value: t.Params[k]})
		}
		xg.Tasks = append(xg.Tasks, xt)
	}
	for _, c := range g.Cables() {
		xg.Cables = append(xg.Cables, xmlCable(c))
	}
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	enc := xml.NewEncoder(&buf)
	enc.Indent("", "  ")
	if err := enc.Encode(xg); err != nil {
		return nil, fmt.Errorf("workflow: %w", err)
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// UnmarshalXML rebuilds a graph from workflow XML; unit kinds must be
// registered via registerUnitKind.
func UnmarshalXML(r io.Reader) (*Graph, error) {
	var xg xmlGraph
	if err := xml.NewDecoder(r).Decode(&xg); err != nil {
		return nil, fmt.Errorf("workflow: %w", err)
	}
	g := NewGraph(xg.Name)
	for _, xt := range xg.Tasks {
		cfg := map[string]string{}
		for _, c := range xt.Unit.Config {
			cfg[c.Name] = c.Value
		}
		u, err := newUnitOfKind(Spec{Kind: xt.Unit.Kind, Config: cfg})
		if err != nil {
			return nil, fmt.Errorf("workflow: task %q: %w", xt.ID, err)
		}
		t, err := g.Add(xt.ID, u)
		if err != nil {
			return nil, err
		}
		for _, p := range xt.Params {
			t.Params[p.Name] = p.Value
		}
	}
	for _, c := range xg.Cables {
		if err := g.Connect(c.FromTask, c.FromPort, c.ToTask, c.ToPort); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// UnmarshalXMLBytes is a convenience wrapper over UnmarshalXML.
func UnmarshalXMLBytes(b []byte) (*Graph, error) {
	return UnmarshalXML(bytes.NewReader(b))
}

// MarshalDAX exports the graph in the GriPhyN DAX abstract-DAG format the
// paper notes Triana supports ("the ability to export the workflow graph in
// XML; the GriPhyN DAX standard is also supported", §2). DAX describes jobs
// and parent-child control dependencies.
func MarshalDAX(g *Graph) ([]byte, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	fmt.Fprintf(&buf, "<adag xmlns=\"http://pegasus.isi.edu/schema/DAX\" name=%q jobCount=\"%d\" childCount=\"%d\">\n",
		g.Name, len(order), len(order))
	for i, id := range order {
		t := g.Task(id)
		fmt.Fprintf(&buf, "  <job id=\"ID%06d\" name=%q namespace=\"datamining\" dv-name=%q/>\n",
			i+1, t.Unit.Name(), id)
	}
	idOf := map[string]int{}
	for i, id := range order {
		idOf[id] = i + 1
	}
	// child elements, one per task with parents.
	parents := map[string][]string{}
	for _, c := range g.Cables() {
		parents[c.ToTask] = append(parents[c.ToTask], c.FromTask)
	}
	for _, id := range order {
		ps := parents[id]
		if len(ps) == 0 {
			continue
		}
		sort.Strings(ps)
		fmt.Fprintf(&buf, "  <child ref=\"ID%06d\">\n", idOf[id])
		seen := map[string]bool{}
		for _, p := range ps {
			if seen[p] {
				continue
			}
			seen[p] = true
			fmt.Fprintf(&buf, "    <parent ref=\"ID%06d\"/>\n", idOf[p])
		}
		buf.WriteString("  </child>\n")
	}
	buf.WriteString("</adag>\n")
	return buf.Bytes(), nil
}
