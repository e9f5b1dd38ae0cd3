// Package dataaccess implements the paper's stated future work: "access to
// relational databases through the OGSA-DAI services available in
// GridMiner" (§5.4). It provides an in-memory relational store with an
// OGSA-DAI-style activity model — list the resources, describe a table's
// schema, run a select/project/limit query — whose results are delivered as
// ARFF so they flow straight into the data-mining services.
package dataaccess

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/arff"
	"repro/internal/dataset"
)

// Database is a named collection of tables; it is safe for concurrent use.
type Database struct {
	mu     sync.RWMutex
	tables map[string]*dataset.Dataset
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{tables: map[string]*dataset.Dataset{}}
}

// CreateTable registers a dataset as a relational table. The stored copy is
// deep, so later mutations of d are invisible.
func (db *Database) CreateTable(name string, d *dataset.Dataset) error {
	if name == "" {
		return fmt.Errorf("dataaccess: empty table name")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return fmt.Errorf("dataaccess: table %q already exists", name)
	}
	db.tables[name] = d.Clone()
	return nil
}

// Tables lists the table names, sorted.
func (db *Database) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Describe returns a table's schema as attribute specifications.
func (db *Database) Describe(name string) ([]string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("dataaccess: no table %q", name)
	}
	specs := make([]string, t.NumAttributes())
	for i, a := range t.Attrs {
		specs[i] = a.SpecString()
	}
	return specs, nil
}

// op is a comparison operator in a Condition.
type op int

const (
	// Eq matches equal values (nominal label or numeric equality).
	Eq op = iota
	// ne matches unequal values.
	ne
	// Lt, Le, Gt, Ge compare numeric attributes.
	lt
	le
	gt
	ge
)

var opNames = map[string]op{"=": Eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}

// Condition is one predicate of a query's where clause (conjunctive).
type Condition struct {
	Attribute string
	Op        op
	Value     string
}

// Query selects rows and projects columns from one table.
type Query struct {
	Table   string
	Columns []string // nil = all columns
	Where   []Condition
	Limit   int // 0 = unlimited
}

// Run executes a query, returning the result as a dataset.
func (db *Database) Run(q Query) (*dataset.Dataset, error) {
	db.mu.RLock()
	t, ok := db.tables[q.Table]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dataaccess: no table %q", q.Table)
	}
	// Resolve where-clause attributes and prepared values.
	preds := make([]pred, 0, len(q.Where))
	for _, c := range q.Where {
		a, col := t.AttributeByName(c.Attribute)
		if a == nil {
			return nil, fmt.Errorf("dataaccess: no column %q in %q", c.Attribute, q.Table)
		}
		p := pred{col: col, op: c.Op, numeric: a.IsNumeric()}
		if a.IsNumeric() {
			v, err := strconv.ParseFloat(c.Value, 64)
			if err != nil {
				return nil, fmt.Errorf("dataaccess: %q is not numeric for column %q", c.Value, c.Attribute)
			}
			p.numVal = v
		} else {
			idx := a.IndexOf(c.Value)
			if idx < 0 {
				return nil, fmt.Errorf("dataaccess: column %q has no value %q", c.Attribute, c.Value)
			}
			if c.Op != Eq && c.Op != ne {
				return nil, fmt.Errorf("dataaccess: ordering comparison on nominal column %q", c.Attribute)
			}
			p.nomVal = idx
		}
		preds = append(preds, p)
	}
	// Resolve projection.
	cols := make([]int, 0, t.NumAttributes())
	if q.Columns == nil {
		for i := range t.Attrs {
			cols = append(cols, i)
		}
	} else {
		for _, name := range q.Columns {
			_, col := t.AttributeByName(name)
			if col < 0 {
				return nil, fmt.Errorf("dataaccess: no column %q in %q", name, q.Table)
			}
			cols = append(cols, col)
		}
	}
	// Select matching rows on the full schema, then project.
	matched := t.ShallowWith(nil)
	for _, in := range t.Instances {
		if rowMatches(in, preds) {
			matched.Instances = append(matched.Instances, in)
			if q.Limit > 0 && len(matched.Instances) >= q.Limit {
				break
			}
		}
	}
	out, err := matched.Project(cols)
	if err != nil {
		return nil, err
	}
	out.Relation = q.Table
	return out, nil
}

// pred is a resolved where-clause predicate.
type pred struct {
	col     int
	op      op
	numeric bool
	numVal  float64
	nomVal  int
}

func rowMatches(in *dataset.Instance, preds []pred) bool {
	for _, p := range preds {
		v := in.Values[p.col]
		if dataset.IsMissing(v) {
			return false
		}
		if p.numeric {
			switch p.op {
			case Eq:
				if v != p.numVal {
					return false
				}
			case ne:
				if v == p.numVal {
					return false
				}
			case lt:
				if !(v < p.numVal) {
					return false
				}
			case le:
				if !(v <= p.numVal) {
					return false
				}
			case gt:
				if !(v > p.numVal) {
					return false
				}
			case ge:
				if !(v >= p.numVal) {
					return false
				}
			}
		} else {
			eq := int(v) == p.nomVal
			if (p.op == Eq && !eq) || (p.op == ne && eq) {
				return false
			}
		}
	}
	return true
}

// ParseConditions parses a conjunctive where clause of the form
// "attr=value;attr2>3" (";"-separated, operators =, !=, <, <=, >, >=).
func ParseConditions(s string) ([]Condition, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []Condition
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		// Longest operators first so "<=" isn't read as "<".
		found := false
		for _, opTok := range []string{"!=", "<=", ">=", "=", "<", ">"} {
			if i := strings.Index(clause, opTok); i > 0 {
				out = append(out, Condition{
					Attribute: strings.TrimSpace(clause[:i]),
					Op:        opNames[opTok],
					Value:     strings.TrimSpace(clause[i+len(opTok):]),
				})
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("dataaccess: malformed condition %q", clause)
		}
	}
	return out, nil
}

// QueryARFF runs a query and renders the result as an ARFF document, the
// delivery format of the toolkit's mining services.
func (db *Database) QueryARFF(q Query) (string, error) {
	d, err := db.Run(q)
	if err != nil {
		return "", err
	}
	return arff.Format(d), nil
}
