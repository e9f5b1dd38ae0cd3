package classify

import (
	"fmt"
	"strings"

	"repro/internal/binfmt"
	"repro/internal/dataset"
)

// prism is Cendrowska's PRISM covering rule learner over nominal
// attributes, another classic of the WEKA library the paper wraps: for
// each class it repeatedly builds a maximally precise conjunctive rule and
// removes the covered instances.
type prism struct {
	rules      []prismRule
	classAttr  *dataset.Attribute
	classIndex int
	fallback   []float64
}

type prismRule struct {
	Class int
	Conds []prismCond
}

type prismCond struct {
	Attr  int
	Name  string
	Value int
	Label string
}

func init() { register("Prism", func() Classifier { return &prism{} }) }

// Name implements Classifier.
func (p *prism) Name() string { return "Prism" }

// Snapshot codes the trained model for the model store.
func (p *prism) Snapshot(c binfmt.Codec) {
	if !c.Has(p.rules != nil) {
		return
	}
	codeAttr(c, &p.classAttr)
	c.Int(&p.classIndex)
	c.F64s(&p.fallback)
	binfmt.List(c, &p.rules, 2)
	for i := range p.rules {
		rule := &p.rules[i]
		if c.Int(&rule.Class); rule.Class >= p.classAttr.NumValues() {
			c.Failf("Prism rule %d predicts class %d of %d", i, rule.Class, p.classAttr.NumValues())
			return
		}
		binfmt.List(c, &rule.Conds, 4)
		for j := range rule.Conds {
			cond := &rule.Conds[j]
			c.Int(&cond.Attr)
			c.Sym(&cond.Name)
			c.Int(&cond.Value)
			c.Sym(&cond.Label)
		}
	}
}

// Train implements Classifier.
func (p *prism) Train(d *dataset.Dataset) error {
	if err := checkTrainable(d); err != nil {
		return err
	}
	for col, a := range d.Attrs {
		if col != d.ClassIndex && !a.IsNominal() {
			return fmt.Errorf("classify: Prism requires nominal attributes; %q is %s (discretise first)",
				a.Name, a.Kind)
		}
	}
	d = d.DeleteWithMissingClass()
	p.classAttr = d.ClassAttribute()
	p.classIndex = d.ClassIndex
	p.fallback = d.ClassCounts()
	p.rules = nil

	for cls := 0; cls < p.classAttr.NumValues(); cls++ {
		remaining := append([]*dataset.Instance(nil), d.Instances...)
		for hasClass(remaining, p.classIndex, cls) {
			rule, covered := p.buildRule(d, remaining, cls)
			if rule == nil {
				break // no perfect or improving rule possible
			}
			p.rules = append(p.rules, *rule)
			// Remove instances covered by the rule.
			kept := remaining[:0]
			for _, in := range remaining {
				if !covered[in] {
					kept = append(kept, in)
				}
			}
			if len(kept) == len(remaining) {
				break // defensive: rule covered nothing
			}
			remaining = kept
		}
	}
	if len(p.rules) == 0 {
		return fmt.Errorf("classify: Prism learned no rules from %q", d.Relation)
	}
	return nil
}

func hasClass(ins []*dataset.Instance, classIndex, cls int) bool {
	for _, in := range ins {
		if int(in.Values[classIndex]) == cls {
			return true
		}
	}
	return false
}

// buildRule grows a conjunction for cls, greedily adding the condition with
// the best precision (p/t) until the rule is perfect or no attributes
// remain. It returns the rule and the set of covered instances.
func (p *prism) buildRule(d *dataset.Dataset, ins []*dataset.Instance, cls int) (*prismRule, map[*dataset.Instance]bool) {
	rule := &prismRule{Class: cls}
	covered := ins
	used := map[int]bool{}
	for {
		// Perfect already?
		if pure(covered, p.classIndex, cls) {
			break
		}
		bestAttr, bestVal := -1, -1
		bestPrec, bestPos := -1.0, 0.0
		for col, a := range d.Attrs {
			if col == p.classIndex || used[col] {
				continue
			}
			for v := 0; v < a.NumValues(); v++ {
				var pos, tot float64
				for _, in := range covered {
					av := in.Values[col]
					if dataset.IsMissing(av) || int(av) != v {
						continue
					}
					tot += in.Weight
					if int(in.Values[p.classIndex]) == cls {
						pos += in.Weight
					}
				}
				if tot == 0 || pos == 0 {
					continue
				}
				prec := pos / tot
				if prec > bestPrec || (prec == bestPrec && pos > bestPos) {
					bestAttr, bestVal = col, v
					bestPrec, bestPos = prec, pos
				}
			}
		}
		if bestAttr < 0 {
			if len(rule.Conds) == 0 {
				return nil, nil // nothing distinguishes this class any more
			}
			break // imperfect rule, but the best we can do
		}
		a := d.Attrs[bestAttr]
		rule.Conds = append(rule.Conds, prismCond{
			Attr: bestAttr, Name: a.Name, Value: bestVal, Label: a.Value(bestVal),
		})
		used[bestAttr] = true
		next := covered[:0:0]
		for _, in := range covered {
			av := in.Values[bestAttr]
			if !dataset.IsMissing(av) && int(av) == bestVal {
				next = append(next, in)
			}
		}
		covered = next
		if len(used) == d.NumAttributes()-1 {
			break
		}
	}
	if len(rule.Conds) == 0 {
		return nil, nil
	}
	cov := map[*dataset.Instance]bool{}
	for _, in := range ins {
		if p.matches(rule, in) && int(in.Values[p.classIndex]) == rule.Class {
			cov[in] = true
		}
	}
	if len(cov) == 0 {
		return nil, nil
	}
	return rule, cov
}

func pure(ins []*dataset.Instance, classIndex, cls int) bool {
	if len(ins) == 0 {
		return false
	}
	for _, in := range ins {
		if int(in.Values[classIndex]) != cls {
			return false
		}
	}
	return true
}

func (p *prism) matches(r *prismRule, in *dataset.Instance) bool {
	for _, c := range r.Conds {
		v := in.Values[c.Attr]
		if dataset.IsMissing(v) || int(v) != c.Value {
			return false
		}
	}
	return true
}

// Distribution implements Classifier: the first matching rule wins; with no
// match the training prior is returned.
func (p *prism) Distribution(in *dataset.Instance) ([]float64, error) {
	if p.rules == nil {
		return nil, fmt.Errorf("classify: Prism is untrained")
	}
	out := make([]float64, p.classAttr.NumValues())
	for i := range p.rules {
		if p.matches(&p.rules[i], in) {
			out[p.rules[i].Class] = 1
			return out, nil
		}
	}
	copy(out, p.fallback)
	return normalize(out), nil
}

// String renders the rule list in WEKA's Prism layout.
func (p *prism) String() string {
	if p.rules == nil {
		return "Prism: untrained"
	}
	var b strings.Builder
	b.WriteString("Prism rules\n----------\n")
	for _, r := range p.rules {
		b.WriteString("If ")
		for i, c := range r.Conds {
			if i > 0 {
				b.WriteString(" and ")
			}
			fmt.Fprintf(&b, "%s = %s", c.Name, c.Label)
		}
		fmt.Fprintf(&b, " then %s\n", p.classAttr.Value(r.Class))
	}
	return b.String()
}
