package services

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/soap"
)

// NewTreeAnalyzerService builds the case study's third Web Service: "a Web
// Service to analyse the output generated from the decision tree" (§5.3).
// It parses the textual J48 tree and reports structural statistics, the
// attributes used, the root attribute, and the tree converted to rules:
//
//	analyze(tree) -> root, depth, leaves, attributes, rules
func NewTreeAnalyzerService() *Service {
	return register(serviceDesc{
		Name:     "TreeAnalyzer",
		Version:  "1.1",
		Category: "processing",
		Doc:      "Decision-tree output analysis: root attribute, depth, leaves and extracted rules (§5.3).",
		Ops: []op{
			{
				Name: "analyze",
				Doc:  "Analyse a textual J48 decision tree: root attribute, depth, leaves, rules.",
				In:   []string{partTree},
				Out:  []string{partRoot, partDepth, partLeaves, partAttributes, partRules},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					text, err := require(parts, "tree")
					if err != nil {
						return nil, err
					}
					a, err := analyzeTreeText(text)
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Client", String: "unparseable tree", Detail: err.Error()}
					}
					return map[string]string{
						"root":       a.Root,
						"depth":      strconv.Itoa(a.Depth),
						"leaves":     strconv.Itoa(a.Leaves),
						"attributes": strings.Join(a.Attributes, "\n"),
						"rules":      strings.Join(a.Rules, "\n"),
					}, nil
				},
			},
		},
	})
}

// treeAnalysis is the structural summary of a textual J48 tree.
type treeAnalysis struct {
	Root       string
	Depth      int
	Leaves     int
	Attributes []string
	Rules      []string
}

// analyzeTreeText parses the WEKA-style textual J48 layout produced by the
// classify operation (lines of "attr = value[: class (n/e)]" with "|   "
// indentation) into a treeAnalysis.
func analyzeTreeText(text string) (*treeAnalysis, error) {
	a := &treeAnalysis{}
	// root is the first named top-level attribute, maxDepth the deepest
	// level seen.
	root, maxDepth := "", 0
	attrs := map[string]bool{}
	// path[d] holds the condition at depth d on the current branch.
	var path []string
	sawNode := false
	for _, raw := range strings.Split(text, "\n") {
		line := raw
		if strings.TrimSpace(line) == "" {
			continue
		}
		// Skip headers/footers of the J48 textual layout.
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "J48") || strings.HasPrefix(trimmed, "---") ||
			strings.HasPrefix(trimmed, "Number of Leaves") || strings.HasPrefix(trimmed, "Size of the tree") {
			continue
		}
		depth := 0
		for strings.HasPrefix(line, "|   ") {
			depth++
			line = line[4:]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		sawNode = true
		cond := line
		leafClass := ""
		if colon := strings.Index(line, ": "); colon >= 0 {
			cond = line[:colon]
			leafClass = strings.TrimSpace(line[colon+2:])
			if paren := strings.Index(leafClass, " ("); paren >= 0 {
				leafClass = leafClass[:paren]
			}
		}
		// Attribute name: token before the comparator.
		name := cond
		for _, sep := range []string{" = ", " <= ", " > ", " < ", " >= "} {
			if i := strings.Index(cond, sep); i >= 0 {
				name = cond[:i]
				break
			}
		}
		name = strings.TrimSpace(name)
		if name != "" {
			attrs[name] = true
		}
		if depth == 0 && root == "" {
			root = name
		}
		if len(path) <= depth {
			path = append(path, make([]string, depth+1-len(path))...)
		}
		path = path[:depth+1]
		path[depth] = cond
		maxDepth = max(maxDepth, depth+1)
		if leafClass != "" {
			a.Leaves++
			a.Rules = append(a.Rules,
				fmt.Sprintf("IF %s THEN %s", strings.Join(path[:depth+1], " AND "), leafClass))
		}
	}
	if !sawNode {
		return nil, fmt.Errorf("no tree nodes found")
	}
	a.Root, a.Depth = root, maxDepth
	for name := range attrs {
		a.Attributes = append(a.Attributes, name)
	}
	sort.Strings(a.Attributes)
	return a, nil
}
