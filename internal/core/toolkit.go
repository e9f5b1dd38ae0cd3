// Package core is the toolkit facade: the toolbox of Figure 2 (data-set
// manipulation tools, processing tools, visualisation tools, the workflow
// engine and the Web Service import path) assembled behind one API. A
// Toolkit holds the folder tree the user sees in the composition workspace
// (Figure 1, left pane); services imported from WSDL become tools exactly
// as in Triana — one tool per operation.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/algo"
	"repro/internal/arff"
	"repro/internal/csvconv"
	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/signal"
	"repro/internal/workflow"
	"repro/internal/wsdl"
)

// tool is a toolbox entry: a named unit factory living in a folder.
type tool struct {
	Name   string
	Folder string
	Doc    string
	Make   func() workflow.Unit
}

// Toolkit is the composition environment's toolbox.
type Toolkit struct {
	mu    sync.RWMutex
	tools map[string]tool // by name
}

// NewToolkit returns a toolbox pre-populated with the local tools of §4.3
// and §4.4: data-manipulation, processing, visualisation and signal tools.
func NewToolkit() *Toolkit {
	tk := &Toolkit{tools: map[string]tool{}}
	for _, t := range builtinTools() {
		tk.mustRegister(t)
	}
	return tk
}

func (tk *Toolkit) mustRegister(t tool) {
	if err := tk.register(t); err != nil {
		panic(err)
	}
}

// register adds a tool; names must be unique across folders.
func (tk *Toolkit) register(t tool) error {
	if t.Name == "" || t.Make == nil {
		return fmt.Errorf("core: tool needs a name and a factory")
	}
	tk.mu.Lock()
	defer tk.mu.Unlock()
	if _, dup := tk.tools[t.Name]; dup {
		return fmt.Errorf("core: duplicate tool %q", t.Name)
	}
	if t.Folder == "" {
		t.Folder = "Common"
	}
	tk.tools[t.Name] = t
	return nil
}

// NewUnit instantiates a tool by name.
func (tk *Toolkit) NewUnit(name string) (workflow.Unit, error) {
	tk.mu.RLock()
	t, ok := tk.tools[name]
	tk.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: no tool %q in the toolbox", name)
	}
	return t.Make(), nil
}

// Folders returns the folder names, sorted — the top level of the Figure-1
// tool tree.
func (tk *Toolkit) Folders() []string {
	tk.mu.RLock()
	defer tk.mu.RUnlock()
	seen := map[string]bool{}
	var out []string
	for _, t := range tk.tools {
		if !seen[t.Folder] {
			seen[t.Folder] = true
			out = append(out, t.Folder)
		}
	}
	sort.Strings(out)
	return out
}

// ToolsIn returns the tool names in a folder, sorted.
func (tk *Toolkit) ToolsIn(folder string) []string {
	tk.mu.RLock()
	defer tk.mu.RUnlock()
	var out []string
	for _, t := range tk.tools {
		if t.Folder == folder {
			out = append(out, t.Name)
		}
	}
	sort.Strings(out)
	return out
}

// TreeString renders the toolbox as the indented folder tree of the
// workspace's left-hand pane.
func (tk *Toolkit) TreeString() string {
	var b strings.Builder
	for _, f := range tk.Folders() {
		fmt.Fprintf(&b, "%s/\n", f)
		for _, name := range tk.ToolsIn(f) {
			fmt.Fprintf(&b, "  %s\n", name)
		}
	}
	return b.String()
}

// ImportDescription adds one tool per operation of a WSDL description under
// the "RemoteServices/<service>" folder, reproducing Triana's WSDL import.
// It returns the created tool names.
func (tk *Toolkit) ImportDescription(desc *wsdl.Description) ([]string, error) {
	units := workflow.UnitsFromDescription(desc)
	var names []string
	for _, u := range units {
		unit := u
		name := unit.Service + "." + unit.Operation
		doc := ""
		if op := desc.Operation(unit.Operation); op != nil {
			doc = op.Doc
		}
		if err := tk.register(tool{
			Name:   name,
			Folder: "RemoteServices/" + desc.Service,
			Doc:    doc,
			Make:   func() workflow.Unit { return unit },
		}); err != nil {
			return names, err
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ImportWSDL fetches a WSDL document and imports its operations as tools.
func (tk *Toolkit) ImportWSDL(url string) ([]string, error) {
	desc, err := workflow.FetchWSDL(url)
	if err != nil {
		return nil, err
	}
	if len(desc.Ops) == 0 {
		return nil, fmt.Errorf("core: WSDL at %s declares no operations", url)
	}
	return tk.ImportDescription(desc)
}

// ImportFromRegistry inquires a registry (by category; "" = everything) and
// imports every matching service's WSDL into the toolbox — the discovery
// flow of §4.6, where users locate services through the UDDI inquiry
// interface. It returns the imported tool names.
func (tk *Toolkit) ImportFromRegistry(registryURL, category string) ([]string, error) {
	c := &registry.Client{BaseURL: registryURL}
	entries, err := c.Inquire("", category)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("core: registry has no services in category %q", category)
	}
	var all []string
	for _, e := range entries {
		names, err := tk.ImportWSDL(e.WSDLURL)
		if err != nil {
			return all, fmt.Errorf("core: importing %s: %w", e.Name, err)
		}
		all = append(all, names...)
	}
	sort.Strings(all)
	return all, nil
}

// builtinTools assembles the pre-defined local tools (§4.3's three tool
// families plus the Common and signal-processing folders).
func builtinTools() []tool {
	return []tool{
		{
			Name: "StringInput", Folder: "Common",
			Doc:  "Emit a fixed string value.",
			Make: func() workflow.Unit { return &workflow.ConstUnit{UnitName: "StringInput", Values: workflow.Values{}} },
		},
		{
			Name: "StringViewer", Folder: "Common",
			Doc:  "Display (capture) a string value.",
			Make: func() workflow.Unit { return &workflow.ViewerUnit{UnitName: "StringViewer"} },
		},
		{
			Name: "LocalDataset", Folder: "DataManipulation",
			Doc:  "Load a dataset from the local filespace (param: arff text) and emit it as ARFF.",
			Make: newLocalDatasetUnit,
		},
		{
			Name: "CSVtoARFF", Folder: "DataManipulation",
			Doc:  "Convert a CSV document to ARFF.",
			Make: newCSVtoARFFUnit,
		},
		{
			Name: "ARFFtoCSV", Folder: "DataManipulation",
			Doc:  "Convert an ARFF document to CSV.",
			Make: newARFFtoCSVUnit,
		},
		{
			Name: "DatasetInfo", Folder: "DataManipulation",
			Doc:  "Summarise a dataset (the Figure-3 statistics block).",
			Make: newDatasetInfoUnit,
		},
		{
			Name: "ClassifierSelector", Folder: "Processing",
			Doc:  "Pick a classifier from the getClassifiers list (param: choice).",
			Make: newClassifierSelectorUnit,
		},
		{
			Name: "OptionSelector", Folder: "Processing",
			Doc:  "Assemble an options value from a getOptions reply plus overrides (params: set.<name>).",
			Make: newOptionSelectorUnit,
		},
		{
			Name: "AttributeSelector", Folder: "Processing",
			Doc:  "Select an attribute from a dataset (param: choice; default: last attribute).",
			Make: newAttributeSelectorUnit,
		},
		{
			Name: "TreeViewer", Folder: "Visualization",
			Doc:  "Display (capture) a decision tree, textual or DOT.",
			Make: func() workflow.Unit { return &workflow.ViewerUnit{UnitName: "TreeViewer", Port: "tree"} },
		},
		{
			Name: "ImageViewer", Folder: "Visualization",
			Doc:  "Display (capture) a base64 PNG image.",
			Make: func() workflow.Unit { return &workflow.ViewerUnit{UnitName: "ImageViewer", Port: "image"} },
		},
		{
			Name: "FFT", Folder: "SignalProcessing",
			Doc:  "Power spectrum of a comma-separated signal (Triana signal toolbox).",
			Make: newFFTUnit,
		},
	}
}

func newLocalDatasetUnit() workflow.Unit {
	return &workflow.FuncUnit{
		UnitName: "LocalDataset",
		In:       []string{"arff"},
		Out:      []string{"dataset"},
		Fn: func(ctx context.Context, in workflow.Values) (workflow.Values, error) {
			text, ok := in["arff"]
			if !ok {
				return nil, fmt.Errorf("core: LocalDataset needs an arff param")
			}
			if _, err := arff.ParseString(text); err != nil {
				return nil, fmt.Errorf("core: LocalDataset: %w", err)
			}
			return workflow.Values{"dataset": text}, nil
		},
	}
}

func newCSVtoARFFUnit() workflow.Unit {
	return &workflow.FuncUnit{
		UnitName: "CSVtoARFF",
		In:       []string{"csv"},
		Out:      []string{"dataset"},
		Fn: func(ctx context.Context, in workflow.Values) (workflow.Values, error) {
			d, err := csvconv.ParseString(in["csv"], csvconv.Options{HasHeader: true})
			if err != nil {
				return nil, err
			}
			return workflow.Values{"dataset": arff.Format(d)}, nil
		},
	}
}

func newARFFtoCSVUnit() workflow.Unit {
	return &workflow.FuncUnit{
		UnitName: "ARFFtoCSV",
		In:       []string{"dataset"},
		Out:      []string{"csv"},
		Fn: func(ctx context.Context, in workflow.Values) (workflow.Values, error) {
			d, err := arff.ParseString(in["dataset"])
			if err != nil {
				return nil, err
			}
			return workflow.Values{"csv": csvconv.Format(d)}, nil
		},
	}
}

func newDatasetInfoUnit() workflow.Unit {
	return &workflow.FuncUnit{
		UnitName: "DatasetInfo",
		In:       []string{"dataset"},
		Out:      []string{"summary"},
		Fn: func(ctx context.Context, in workflow.Values) (workflow.Values, error) {
			d, err := arff.ParseString(in["dataset"])
			if err != nil {
				return nil, err
			}
			return workflow.Values{"summary": dataset.Summarize(d).Format()}, nil
		},
	}
}

func newClassifierSelectorUnit() workflow.Unit {
	return &workflow.FuncUnit{
		UnitName: "ClassifierSelector",
		In:       []string{"classifiers", "choice"},
		Out:      []string{"classifier"},
		Fn: func(ctx context.Context, in workflow.Values) (workflow.Values, error) {
			list := strings.Split(strings.TrimSpace(in["classifiers"]), "\n")
			choice := strings.TrimSpace(in["choice"])
			if choice == "" {
				return nil, fmt.Errorf("core: ClassifierSelector needs a choice param")
			}
			if idx, err := strconv.Atoi(choice); err == nil {
				if idx < 0 || idx >= len(list) {
					return nil, fmt.Errorf("core: classifier index %d out of range (%d available)", idx, len(list))
				}
				return workflow.Values{"classifier": strings.TrimSpace(list[idx])}, nil
			}
			for _, name := range list {
				if strings.TrimSpace(name) == choice {
					return workflow.Values{"classifier": choice}, nil
				}
			}
			return nil, fmt.Errorf("core: classifier %q is not offered by the service (offers: %s)",
				choice, strings.Join(list, ", "))
		},
	}
}

func newOptionSelectorUnit() workflow.Unit {
	return &workflow.FuncUnit{
		UnitName: "OptionSelector",
		In:       []string{"options"},
		Out:      []string{"selected"},
		Fn: func(ctx context.Context, in workflow.Values) (workflow.Values, error) {
			// Parse the getOptions JSON descriptors, then collect the
			// "set.<name>" overrides of offered options.
			var descriptors []algo.Option
			raw := strings.TrimSpace(in["options"])
			if raw != "" && raw != "null" {
				if err := json.Unmarshal([]byte(raw), &descriptors); err != nil {
					return nil, fmt.Errorf("core: OptionSelector: malformed options JSON: %w", err)
				}
			}
			chosen := map[string]string{}
			known := map[string]bool{}
			for _, d := range descriptors {
				known[d.Name] = true
			}
			for k, v := range in {
				if name, ok := strings.CutPrefix(k, "set."); ok {
					if len(known) > 0 && !known[name] {
						return nil, fmt.Errorf("core: OptionSelector: option %q not offered", name)
					}
					chosen[name] = v
				}
			}
			out, err := json.Marshal(chosen)
			if err != nil {
				return nil, err
			}
			return workflow.Values{"selected": string(out)}, nil
		},
	}
}

func newAttributeSelectorUnit() workflow.Unit {
	return &workflow.FuncUnit{
		UnitName: "AttributeSelector",
		In:       []string{"dataset", "choice"},
		Out:      []string{"attribute"},
		Fn: func(ctx context.Context, in workflow.Values) (workflow.Values, error) {
			d, err := arff.ParseString(in["dataset"])
			if err != nil {
				return nil, err
			}
			choice := strings.TrimSpace(in["choice"])
			if choice == "" {
				return workflow.Values{"attribute": d.Attrs[len(d.Attrs)-1].Name}, nil
			}
			if _, i := d.AttributeByName(choice); i >= 0 {
				return workflow.Values{"attribute": choice}, nil
			}
			return nil, fmt.Errorf("core: dataset has no attribute %q", choice)
		},
	}
}

func newFFTUnit() workflow.Unit {
	return &workflow.FuncUnit{
		UnitName: "FFT",
		In:       []string{"signal"},
		Out:      []string{"spectrum", "dominant"},
		Fn: func(ctx context.Context, in workflow.Values) (workflow.Values, error) {
			var xs []float64
			for _, tok := range strings.Split(in["signal"], ",") {
				tok = strings.TrimSpace(tok)
				if tok == "" {
					continue
				}
				v, err := strconv.ParseFloat(tok, 64)
				if err != nil {
					return nil, fmt.Errorf("core: FFT: %w", err)
				}
				xs = append(xs, v)
			}
			if len(xs) == 0 {
				return nil, fmt.Errorf("core: FFT: empty signal")
			}
			psd := signal.Periodogram(xs, signal.Hann)
			toks := make([]string, len(psd))
			for i, v := range psd {
				toks[i] = strconv.FormatFloat(v, 'g', 8, 64)
			}
			return workflow.Values{
				"spectrum": strings.Join(toks, ","),
				"dominant": strconv.Itoa(signal.DominantFrequency(psd)),
			}, nil
		},
	}
}
