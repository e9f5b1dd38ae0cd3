// Package wsdl generates and parses WSDL 1.1 service descriptions. The
// toolkit imports a Web Service "by providing its WSDL interface", after
// which "Triana creates a tool for each operation provided by the service"
// (§4); ParseBytes and Description.Ops reproduce exactly that flow.
package wsdl

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// Part is one named input or output of an operation. Type is an XSD simple
// type name ("string", "base64Binary", ...).
type Part struct {
	Name string
	Type string
}

// Operation describes one service operation.
type Operation struct {
	Name    string
	Doc     string
	Inputs  []Part
	Outputs []Part
}

// Description is the toolkit's view of a deployed service.
type Description struct {
	Service  string
	Endpoint string // the location URL in the binding
	Ops      []Operation
}

// Operation returns the named operation, or nil.
func (d *Description) Operation(name string) *Operation {
	for i := range d.Ops {
		if d.Ops[i].Name == name {
			return &d.Ops[i]
		}
	}
	return nil
}

// Generate renders the description as a WSDL 1.1 document (rpc-style
// messages with string parts, one port).
func Generate(d *Description) ([]byte, error) {
	if d.Service == "" {
		return nil, fmt.Errorf("wsdl: description has no service name")
	}
	var b bytes.Buffer
	b.WriteString(xml.Header)
	tns := "urn:" + d.Service
	fmt.Fprintf(&b, `<definitions name=%q targetNamespace=%q xmlns:tns=%q `+
		`xmlns:soap="http://schemas.xmlsoap.org/wsdl/soap/" `+
		`xmlns:xsd="http://www.w3.org/2001/XMLSchema" `+
		`xmlns="http://schemas.xmlsoap.org/wsdl/">`+"\n", d.Service, tns, tns)
	// Messages.
	for _, op := range d.Ops {
		fmt.Fprintf(&b, "  <message name=%q>\n", op.Name+"Request")
		for _, p := range op.Inputs {
			fmt.Fprintf(&b, "    <part name=%q type=\"xsd:%s\"/>\n", p.Name, orString(p.Type))
		}
		b.WriteString("  </message>\n")
		fmt.Fprintf(&b, "  <message name=%q>\n", op.Name+"Response")
		for _, p := range op.Outputs {
			fmt.Fprintf(&b, "    <part name=%q type=\"xsd:%s\"/>\n", p.Name, orString(p.Type))
		}
		b.WriteString("  </message>\n")
	}
	// PortType.
	fmt.Fprintf(&b, "  <portType name=%q>\n", d.Service+"PortType")
	for _, op := range d.Ops {
		fmt.Fprintf(&b, "    <operation name=%q>\n", op.Name)
		if op.Doc != "" {
			fmt.Fprintf(&b, "      <documentation>%s</documentation>\n", escapeXML(op.Doc))
		}
		fmt.Fprintf(&b, "      <input message=\"tns:%sRequest\"/>\n", op.Name)
		fmt.Fprintf(&b, "      <output message=\"tns:%sResponse\"/>\n", op.Name)
		b.WriteString("    </operation>\n")
	}
	b.WriteString("  </portType>\n")
	// Binding.
	fmt.Fprintf(&b, "  <binding name=%q type=\"tns:%sPortType\">\n", d.Service+"Binding", d.Service)
	b.WriteString("    <soap:binding style=\"document\" transport=\"http://schemas.xmlsoap.org/soap/http\"/>\n")
	for _, op := range d.Ops {
		fmt.Fprintf(&b, "    <operation name=%q><soap:operation soapAction=%q/></operation>\n",
			op.Name, op.Name)
	}
	b.WriteString("  </binding>\n")
	// Service + port.
	fmt.Fprintf(&b, "  <service name=%q>\n", d.Service)
	fmt.Fprintf(&b, "    <port name=%q binding=\"tns:%sBinding\">\n", d.Service+"Port", d.Service)
	fmt.Fprintf(&b, "      <soap:address location=%q/>\n", d.Endpoint)
	b.WriteString("    </port>\n  </service>\n</definitions>\n")
	return b.Bytes(), nil
}

func orString(t string) string {
	if t == "" {
		return "string"
	}
	return t
}

func escapeXML(s string) string {
	var b bytes.Buffer
	_ = xml.EscapeText(&b, []byte(s))
	return b.String()
}

// parse reads a WSDL document back into a Description. It understands the
// subset Generate emits (which matches what the toolkit's import needs:
// operation names, part names/types, documentation and the port address).
func parse(r io.Reader) (*Description, error) {
	type xmlPart struct {
		Name string `xml:"name,attr"`
		Type string `xml:"type,attr"`
	}
	type xmlMessage struct {
		Name  string    `xml:"name,attr"`
		Parts []xmlPart `xml:"part"`
	}
	type xmlIO struct {
		Message string `xml:"message,attr"`
	}
	type xmlOperation struct {
		Name   string `xml:"name,attr"`
		Doc    string `xml:"documentation"`
		Input  xmlIO  `xml:"input"`
		Output xmlIO  `xml:"output"`
	}
	type xmlPortType struct {
		Name string         `xml:"name,attr"`
		Ops  []xmlOperation `xml:"operation"`
	}
	type xmlAddress struct {
		Location string `xml:"location,attr"`
	}
	type xmlPort struct {
		Address xmlAddress `xml:"address"`
	}
	type xmlService struct {
		Name  string    `xml:"name,attr"`
		Ports []xmlPort `xml:"port"`
	}
	type xmlDefinitions struct {
		Name      string        `xml:"name,attr"`
		Messages  []xmlMessage  `xml:"message"`
		PortTypes []xmlPortType `xml:"portType"`
		Services  []xmlService  `xml:"service"`
	}
	var defs xmlDefinitions
	if err := xml.NewDecoder(r).Decode(&defs); err != nil {
		return nil, fmt.Errorf("wsdl: %w", err)
	}
	if len(defs.PortTypes) == 0 {
		return nil, fmt.Errorf("wsdl: document has no portType")
	}
	msgs := map[string][]Part{}
	for _, m := range defs.Messages {
		var parts []Part
		for _, p := range m.Parts {
			t := p.Type
			if i := strings.IndexByte(t, ':'); i >= 0 {
				t = t[i+1:]
			}
			parts = append(parts, Part{Name: p.Name, Type: t})
		}
		msgs[m.Name] = parts
	}
	lookup := func(ref string) []Part {
		if i := strings.IndexByte(ref, ':'); i >= 0 {
			ref = ref[i+1:]
		}
		return msgs[ref]
	}
	d := &Description{Service: defs.Name}
	if len(defs.Services) > 0 {
		if d.Service == "" {
			d.Service = defs.Services[0].Name
		}
		if len(defs.Services[0].Ports) > 0 {
			d.Endpoint = defs.Services[0].Ports[0].Address.Location
		}
	}
	for _, op := range defs.PortTypes[0].Ops {
		d.Ops = append(d.Ops, Operation{
			Name:    op.Name,
			Doc:     strings.TrimSpace(op.Doc),
			Inputs:  lookup(op.Input.Message),
			Outputs: lookup(op.Output.Message),
		})
	}
	return d, nil
}

// ParseBytes parses a WSDL document.
func ParseBytes(b []byte) (*Description, error) {
	return parse(bytes.NewReader(b))
}
