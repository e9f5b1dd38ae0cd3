package workflow

import (
	"context"
	"strings"
	"testing"
)

func serializableGraph() *Graph {
	g := NewGraph("case-study")
	g.MustAdd("data", &ConstUnit{UnitName: "LocalDataset", Values: Values{"dataset": "@relation r\n@attribute x numeric\n@data\n1\n"}})
	g.MustAdd("svc", &SOAPUnit{
		Endpoint: "http://host/services/J48", Service: "J48", Operation: "classify",
		In: []string{"dataset", "options", "attribute"}, Out: []string{"tree"},
	})
	viewer := &ViewerUnit{UnitName: "TreeViewer", Port: "tree"}
	g.MustAdd("view", viewer)
	g.MustConnect("data", "dataset", "svc", "dataset")
	g.MustConnect("svc", "tree", "view", "tree")
	g.Task("svc").Params["attribute"] = "x"
	return g
}

func TestXMLRoundTrip(t *testing.T) {
	g := serializableGraph()
	b, err := MarshalXML(g)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`<workflow name="case-study">`, `kind="soap"`,
		`kind="const"`, `kind="viewer"`, `fromTask="data"`, `<param name="attribute">x</param>`} {
		if !strings.Contains(s, want) {
			t.Fatalf("XML lacks %q:\n%s", want, s)
		}
	}
	g2, err := UnmarshalXMLBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Name != "case-study" || len(g2.Tasks()) != 3 || len(g2.Cables()) != 2 {
		t.Fatalf("rebuilt graph: %v tasks %v cables", g2.Tasks(), g2.Cables())
	}
	svc, ok := g2.Task("svc").Unit.(*SOAPUnit)
	if !ok {
		t.Fatalf("svc unit = %T", g2.Task("svc").Unit)
	}
	if svc.Endpoint != "http://host/services/J48" || svc.Operation != "classify" {
		t.Fatalf("soap unit lost config: %+v", svc)
	}
	if len(svc.In) != 3 || svc.In[0] != "dataset" {
		t.Fatalf("input ports lost: %v", svc.In)
	}
	if g2.Task("svc").Params["attribute"] != "x" {
		t.Fatal("params lost")
	}
	// Round trip again: stable.
	b2, err := MarshalXML(g2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("XML not stable across round trips:\n%s\nvs\n%s", b, b2)
	}
}

func TestXMLRejectsUnserialisableUnit(t *testing.T) {
	g := NewGraph("g")
	g.MustAdd("fn", &FuncUnit{UnitName: "fn", Out: []string{"x"},
		Fn: func(ctx context.Context, in Values) (Values, error) { return Values{"x": ""}, nil }})
	if _, err := MarshalXML(g); err == nil {
		t.Fatal("FuncUnit serialised")
	}
}

func TestUnmarshalXMLErrors(t *testing.T) {
	if _, err := UnmarshalXMLBytes([]byte("junk")); err == nil {
		t.Fatal("junk accepted")
	}
	bad := `<workflow name="g"><task id="a"><unit kind="nonexistent"></unit></task></workflow>`
	if _, err := UnmarshalXMLBytes([]byte(bad)); err == nil {
		t.Fatal("unknown unit kind accepted")
	}
}

func TestDAXExport(t *testing.T) {
	g := serializableGraph()
	b, err := MarshalDAX(g)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{"<adag", `name="case-study"`, "<job id=\"ID000001\"",
		"<child ref=", "<parent ref="} {
		if !strings.Contains(s, want) {
			t.Fatalf("DAX lacks %q:\n%s", want, s)
		}
	}
	// Three jobs, two dependencies.
	if strings.Count(s, "<job ") != 3 {
		t.Fatalf("job count:\n%s", s)
	}
	if strings.Count(s, "<parent ") != 2 {
		t.Fatalf("parent count:\n%s", s)
	}
}

func TestDAXRejectsCycles(t *testing.T) {
	g := NewGraph("c")
	g.MustAdd("a", &ViewerUnit{UnitName: "a", Port: "v"})
	g.MustAdd("b", &ViewerUnit{UnitName: "b", Port: "v"})
	g.MustConnect("a", "v", "b", "v")
	g.MustConnect("b", "v", "a", "v")
	if _, err := MarshalDAX(g); err == nil {
		t.Fatal("cyclic DAX exported")
	}
}

func TestUnitKindsRegistry(t *testing.T) {
	for _, want := range []string{"const", "viewer", "soap"} {
		if unitReg[want] == nil {
			t.Fatalf("kind %q unregistered", want)
		}
	}
	if _, err := newUnitOfKind(Spec{Kind: "bogus"}); err == nil {
		t.Fatal("bogus kind constructed")
	}
}
