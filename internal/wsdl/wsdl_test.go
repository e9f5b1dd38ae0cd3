package wsdl

import (
	"strings"
	"testing"
)

func sampleDesc() *Description {
	return &Description{
		Service:  "Classifier",
		Endpoint: "http://example.org/services/Classifier",
		Ops: []Operation{
			{
				Name:    "getClassifiers",
				Doc:     "List available classifiers.",
				Outputs: []Part{{Name: "classifiers"}},
			},
			{
				Name:   "classifyInstance",
				Doc:    "Train & evaluate.",
				Inputs: []Part{{Name: "dataset"}, {Name: "classifier"}, {Name: "options"}, {Name: "attribute"}},
				Outputs: []Part{{Name: "model"}, {Name: "evaluation"},
					{Name: "image", Type: "base64Binary"}},
			},
		},
	}
}

func TestGenerateWellFormed(t *testing.T) {
	doc, err := Generate(sampleDesc())
	if err != nil {
		t.Fatal(err)
	}
	s := string(doc)
	for _, want := range []string{
		"<definitions", "targetNamespace=\"urn:Classifier\"",
		"<message name=\"classifyInstanceRequest\">",
		"<part name=\"dataset\" type=\"xsd:string\"/>",
		"<part name=\"image\" type=\"xsd:base64Binary\"/>",
		"portType", "soap:address location=\"http://example.org/services/Classifier\"",
		"<documentation>List available classifiers.</documentation>",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("WSDL lacks %q:\n%s", want, s)
		}
	}
}

func TestGenerateRequiresName(t *testing.T) {
	if _, err := Generate(&Description{}); err == nil {
		t.Fatal("anonymous service accepted")
	}
}

func TestParseRoundTrip(t *testing.T) {
	doc, err := Generate(sampleDesc())
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	if d.Service != "Classifier" {
		t.Fatalf("service = %q", d.Service)
	}
	if d.Endpoint != "http://example.org/services/Classifier" {
		t.Fatalf("endpoint = %q", d.Endpoint)
	}
	if len(d.Ops) != 2 {
		t.Fatalf("operations = %v", d.Ops)
	}
	op := d.Operation("classifyInstance")
	if op == nil {
		t.Fatal("classifyInstance missing")
	}
	if len(op.Inputs) != 4 || op.Inputs[0].Name != "dataset" {
		t.Fatalf("inputs = %+v", op.Inputs)
	}
	if len(op.Outputs) != 3 || op.Outputs[2].Type != "base64Binary" {
		t.Fatalf("outputs = %+v", op.Outputs)
	}
	if op.Doc != "Train & evaluate." {
		t.Fatalf("doc = %q", op.Doc)
	}
	if d.Operation("nope") != nil {
		t.Fatal("phantom operation")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := ParseBytes([]byte("not xml")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ParseBytes([]byte("<definitions></definitions>")); err == nil {
		t.Fatal("portType-less document accepted")
	}
}
