package dataset

import (
	"fmt"
	"math"
	"strings"
)

// AttrStats summarises one attribute over a dataset, mirroring one row of the
// per-attribute table in the paper's Figure 3.
type AttrStats struct {
	Name     string
	Type     string  // "Enum", "Int", "Real" or "Str"
	EnumPct  float64 // percentage of non-missing values that are enumerated
	IntPct   float64 // percentage of non-missing values that are integral numerics
	RealPct  float64 // percentage of non-missing values that are fractional numerics
	Missing  int     // number of missing cells
	MissPct  float64 // Missing as a percentage of instances
	Distinct int     // number of distinct non-missing values
	Unique   int     // number of values occurring exactly once

	// Numeric-only moments (zero for nominal attributes).
	Min, Max, Mean, StdDev float64
}

// Summary aggregates dataset-level statistics, mirroring the header block of
// the paper's Figure 3 ("Num Instances 286, Num Attributes 10, ...").
type Summary struct {
	Relation      string
	NumInstances  int
	NumAttributes int
	NumContinuous int
	NumInt        int
	NumReal       int
	NumDiscrete   int
	MissingCells  int
	MissingPct    float64 // missing cells as a percentage of all cells
	PerAttribute  []AttrStats
}

// Summarize computes the Figure-3 statistics for a dataset.
func Summarize(d *Dataset) Summary {
	s := Summary{
		Relation:      d.Relation,
		NumInstances:  d.NumInstances(),
		NumAttributes: d.NumAttributes(),
	}
	totalCells := d.NumInstances() * d.NumAttributes()
	for col, a := range d.Attrs {
		st := AttrStats{Name: a.Name}
		counts := make(map[float64]int)
		var nonMissing, ints, reals int
		var sum, sumSq float64
		st.Min, st.Max = math.Inf(1), math.Inf(-1)
		for _, in := range d.Instances {
			v := in.Values[col]
			if IsMissing(v) {
				st.Missing++
				continue
			}
			nonMissing++
			counts[v]++
			if a.Kind == Numeric {
				if v == math.Trunc(v) {
					ints++
				} else {
					reals++
				}
				sum += v
				sumSq += v * v
				if v < st.Min {
					st.Min = v
				}
				if v > st.Max {
					st.Max = v
				}
			}
		}
		st.Distinct = len(counts)
		for _, c := range counts {
			if c == 1 {
				st.Unique++
			}
		}
		if d.NumInstances() > 0 {
			st.MissPct = 100 * float64(st.Missing) / float64(d.NumInstances())
		}
		switch a.Kind {
		case Nominal, String:
			if a.Kind == Nominal {
				st.Type = "Enum"
				s.NumDiscrete++
			} else {
				st.Type = "Str"
			}
			if nonMissing > 0 {
				st.EnumPct = 100
			}
		case Numeric:
			s.NumContinuous++
			if reals > 0 {
				st.Type = "Real"
				s.NumReal++
			} else {
				st.Type = "Int"
				s.NumInt++
			}
			if nonMissing > 0 {
				st.IntPct = 100 * float64(ints) / float64(nonMissing)
				st.RealPct = 100 * float64(reals) / float64(nonMissing)
				st.Mean = sum / float64(nonMissing)
				variance := sumSq/float64(nonMissing) - st.Mean*st.Mean
				if variance < 0 {
					variance = 0
				}
				st.StdDev = math.Sqrt(variance)
			}
		}
		if nonMissing == 0 {
			st.Min, st.Max = 0, 0
		}
		s.MissingCells += st.Missing
		s.PerAttribute = append(s.PerAttribute, st)
	}
	if totalCells > 0 {
		s.MissingPct = 100 * float64(s.MissingCells) / float64(totalCells)
	}
	return s
}

// Format renders the summary in the layout of the paper's Figure 3.
func (s Summary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Num Instances %d\n", s.NumInstances)
	fmt.Fprintf(&b, "Num Attributes %d\n", s.NumAttributes)
	fmt.Fprintf(&b, "Num Continuous %d Int %d Real %d\n", s.NumContinuous, s.NumInt, s.NumReal)
	fmt.Fprintf(&b, "Num Discrete %d\n", s.NumDiscrete)
	fmt.Fprintf(&b, "Missing values %d (%.1f%%)\n", s.MissingCells, s.MissingPct)
	fmt.Fprintf(&b, "%-3s %-12s %-5s %5s %4s %4s %8s %8s %8s\n",
		"#", "name", "type", "enum", "ints", "real", "missing", "distinct", "unique")
	for i, a := range s.PerAttribute {
		fmt.Fprintf(&b, "%-3d %-12s %-5s %4.0f%% %4.0f %4.0f %4d(%2.0f%%) %8d %8d\n",
			i+1, a.Name, a.Type, a.EnumPct, a.IntPct, a.RealPct, a.Missing, a.MissPct, a.Distinct, a.Unique)
	}
	return b.String()
}

// ValueCounts returns, for nominal attribute col, the weight of each label.
func (d *Dataset) ValueCounts(col int) []float64 {
	a := d.Attrs[col]
	counts := make([]float64, a.NumValues())
	for _, in := range d.Instances {
		v := in.Values[col]
		if IsMissing(v) {
			continue
		}
		counts[int(v)] += in.Weight
	}
	return counts
}

// NumericColumn extracts the non-missing values of numeric attribute col.
func (d *Dataset) NumericColumn(col int) []float64 {
	out := make([]float64, 0, len(d.Instances))
	for _, in := range d.Instances {
		v := in.Values[col]
		if !IsMissing(v) {
			out = append(out, v)
		}
	}
	return out
}

// Entropy returns the Shannon entropy (bits) of the class distribution.
func Entropy(counts []float64) float64 {
	var total float64
	for _, c := range counts {
		total += c
	}
	if total <= 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c > 0 {
			p := c / total
			h -= p * math.Log2(p)
		}
	}
	return h
}
