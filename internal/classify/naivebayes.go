package classify

import (
	"fmt"
	"math"

	"repro/internal/binfmt"
	"repro/internal/dataset"
)

// NaiveBayes is a mixed nominal/numeric naive Bayes classifier with Laplace
// smoothing on nominal likelihoods and Gaussian likelihoods on numeric
// attributes. It is updateable, so it can consume remote data streams.
type NaiveBayes struct {
	classIndex int
	numClasses int
	attrs      []*dataset.Attribute

	classCount []float64
	// nominal[col][class][value] = weight
	nominal [][][]float64
	// numeric moments per col per class
	sum, sumSq, cnt [][]float64
}

func init() { register("NaiveBayes", func() Classifier { return &NaiveBayes{} }) }

// Name implements Classifier.
func (nb *NaiveBayes) Name() string { return "NaiveBayes" }

// Snapshot codes the trained model for the model store. Restored counts
// take the shapes the snapshot declares, which must be Begin's.
func (nb *NaiveBayes) Snapshot(c binfmt.Codec) {
	if !c.Has(nb.classCount != nil) {
		return
	}
	schema := &dataset.Dataset{Attrs: nb.attrs, ClassIndex: nb.classIndex}
	if codeSchema(c, &schema); c.Reading() {
		nb.attrs, nb.classIndex = schema.Attrs, schema.ClassIndex
		n := len(nb.attrs)
		nb.nominal, nb.sum, nb.sumSq, nb.cnt = make([][][]float64, n), make([][]float64, n), make([][]float64, n), make([][]float64, n)
	}
	c.F64s(&nb.classCount)
	k := len(nb.classCount)
	for col, a := range nb.attrs {
		c.F64Rows(&nb.nominal[col], a.NumValues())
		c.F64s(&nb.sum[col])
		c.F64s(&nb.sumSq[col])
		c.F64s(&nb.cnt[col])
		nominal, numeric := col != nb.classIndex && a.IsNominal(), col != nb.classIndex && a.IsNumeric()
		if (len(nb.nominal[col]) == k) != nominal || (len(nb.sum[col]) == k) != numeric ||
			len(nb.sumSq[col]) != len(nb.sum[col]) || len(nb.cnt[col]) != len(nb.sum[col]) {
			c.Failf("NaiveBayes counts for attribute %d do not match its kind", col)
			return
		}
	}
	if ca := schema.ClassAttribute(); ca == nil || !ca.IsNominal() || ca.NumValues() != k || k < 2 {
		c.Failf("NaiveBayes needs a nominal class of its %d counts' labels", k)
	} else if c.Reading() {
		nb.numClasses = k
	}
}

// Begin prepares the model for incremental updates against the schema.
func (nb *NaiveBayes) Begin(schema *dataset.Dataset) error {
	ca := schema.ClassAttribute()
	if ca == nil || !ca.IsNominal() || ca.NumValues() < 2 {
		return fmt.Errorf("classify: NaiveBayes needs a nominal class with >=2 labels")
	}
	nb.classIndex = schema.ClassIndex
	nb.numClasses = ca.NumValues()
	nb.attrs = schema.Attrs
	nb.classCount = make([]float64, nb.numClasses)
	n := schema.NumAttributes()
	nb.nominal = make([][][]float64, n)
	nb.sum = make([][]float64, n)
	nb.sumSq = make([][]float64, n)
	nb.cnt = make([][]float64, n)
	for col, a := range schema.Attrs {
		if col == schema.ClassIndex {
			continue
		}
		switch {
		case a.IsNominal():
			nb.nominal[col] = make([][]float64, nb.numClasses)
			for c := range nb.nominal[col] {
				nb.nominal[col][c] = make([]float64, a.NumValues())
			}
		case a.IsNumeric():
			nb.sum[col] = make([]float64, nb.numClasses)
			nb.sumSq[col] = make([]float64, nb.numClasses)
			nb.cnt[col] = make([]float64, nb.numClasses)
		}
	}
	return nil
}

// Update folds one instance into the model.
func (nb *NaiveBayes) Update(in *dataset.Instance) error {
	if nb.classCount == nil {
		return fmt.Errorf("classify: NaiveBayes.Update before Begin/Train")
	}
	cv := in.Values[nb.classIndex]
	if dataset.IsMissing(cv) {
		return nil
	}
	c := int(cv)
	nb.classCount[c] += in.Weight
	for col, a := range nb.attrs {
		if col == nb.classIndex {
			continue
		}
		v := in.Values[col]
		if dataset.IsMissing(v) {
			continue
		}
		switch {
		case a.IsNominal():
			nb.nominal[col][c][int(v)] += in.Weight
		case a.IsNumeric():
			nb.sum[col][c] += v * in.Weight
			nb.sumSq[col][c] += v * v * in.Weight
			nb.cnt[col][c] += in.Weight
		}
	}
	return nil
}

// Train implements Classifier.
func (nb *NaiveBayes) Train(d *dataset.Dataset) error {
	if err := checkTrainable(d); err != nil {
		return err
	}
	if err := nb.Begin(d); err != nil {
		return err
	}
	for _, in := range d.Instances {
		if err := nb.Update(in); err != nil {
			return err
		}
	}
	return nil
}

// nbScorer is what scoring derives from the counts: the Laplace-smoothed
// log priors, each nominal column's per-class mass (row weight + value
// count) and each numeric column's per-class Gaussian, the last two flat
// and indexed [col*numClasses+class], plus the per-row log scratch. prepare
// builds it per call, never on the model, so an Update is visible to the
// next score and concurrent readers share nothing.
type nbScorer struct {
	nb       *NaiveBayes
	logPrior []float64
	logp     []float64
	nomMass  []float64
	gauss    []nbGauss
}

type nbGauss struct {
	ok             bool
	mean, variance float64
	logNorm        float64 // -0.5*log(2*pi*variance)
}

// prepare builds the scorer in mass and gauss when their capacity allows
// (Distribution passes fixed-size arrays, so one row allocates only its
// result) and in fresh slices otherwise.
func (nb *NaiveBayes) prepare(mass []float64, gauss []nbGauss) nbScorer {
	var totalW float64
	for _, w := range nb.classCount {
		totalW += w
	}
	k, m := nb.numClasses, len(nb.attrs)
	if cap(mass) < (2+m)*k {
		mass = make([]float64, (2+m)*k)
	}
	if cap(gauss) < m*k {
		gauss = make([]nbGauss, m*k)
	}
	s := nbScorer{nb: nb, logPrior: mass[:k], logp: mass[k : 2*k], nomMass: mass[2*k : (2+m)*k], gauss: gauss[:m*k]}
	for c := range s.logPrior {
		s.logPrior[c] = math.Log((nb.classCount[c] + 1) / (totalW + float64(k)))
	}
	for col, a := range nb.attrs {
		if col == nb.classIndex {
			continue
		}
		switch {
		case a.IsNominal():
			for c := 0; c < k; c++ {
				row := nb.nominal[col][c]
				var rowW float64
				for _, w := range row {
					rowW += w
				}
				s.nomMass[col*k+c] = rowW + float64(len(row))
			}
		case a.IsNumeric():
			for c := 0; c < k; c++ {
				n := nb.cnt[col][c]
				if n < 2 {
					s.gauss[col*k+c] = nbGauss{}
					continue
				}
				mean := nb.sum[col][c] / n
				variance := nb.sumSq[col][c]/n - mean*mean
				if variance < 1e-6 {
					variance = 1e-6
				}
				s.gauss[col*k+c] = nbGauss{ok: true, mean: mean, variance: variance,
					logNorm: -0.5 * math.Log(2*math.Pi*variance)}
			}
		}
	}
	return s
}

// score writes the class distribution of one row into out. Each class's
// log joint is its prior plus the columns in
// ascending order; the soft-max runs in log space for numeric stability.
// A nominal value truncates to a label, and one past the last label
// counts as the last, as in the trees; a negative one is an error.
func (s *nbScorer) score(vals, out []float64) ([]float64, error) {
	nb, logp := s.nb, s.logp
	for c := 0; c < nb.numClasses; c++ {
		lp := s.logPrior[c]
		for col, a := range nb.attrs {
			if col == nb.classIndex {
				continue
			}
			v := vals[col]
			if dataset.IsMissing(v) {
				continue
			}
			switch {
			case a.IsNominal():
				counts := nb.nominal[col][c]
				if v < 0 {
					return nil, errNegativeNominal(col, v)
				}
				lp += math.Log((counts[int(min(v, float64(len(counts)-1)))] + 1) / s.nomMass[col*nb.numClasses+c])
			case a.IsNumeric():
				g := s.gauss[col*nb.numClasses+c]
				if !g.ok {
					continue
				}
				diff := v - g.mean
				lp += g.logNorm - diff*diff/(2*g.variance)
			}
		}
		logp[c] = lp
	}
	maxLog := math.Inf(-1)
	for _, lp := range logp {
		if lp > maxLog {
			maxLog = lp
		}
	}
	for c, lp := range logp {
		out[c] = math.Exp(lp - maxLog)
	}
	return normalize(out), nil
}

// Distribution implements Classifier.
func (nb *NaiveBayes) Distribution(in *dataset.Instance) ([]float64, error) {
	if nb.classCount == nil {
		return nil, fmt.Errorf("classify: NaiveBayes is untrained")
	}
	if err := checkWidth(nb.Name(), in, len(nb.attrs)); err != nil {
		return nil, err
	}
	var mass [48]float64
	var gauss [24]nbGauss
	s := nb.prepare(mass[:0], gauss[:0])
	return s.score(in.Values, make([]float64, nb.numClasses))
}

// DistributionBatch implements batchScorer: prepare runs once per block
// instead of once per row, and the rows are carved from one slab.
func (nb *NaiveBayes) DistributionBatch(d *dataset.Dataset) ([][]float64, error) {
	if nb.classCount == nil {
		return nil, fmt.Errorf("classify: NaiveBayes is untrained")
	}
	s, k := nb.prepare(nil, nil), nb.numClasses
	slab := make([]float64, d.NumInstances()*k)
	out := make([][]float64, d.NumInstances())
	for i, in := range d.Instances {
		if err := checkWidth(nb.Name(), in, len(nb.attrs)); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		var err error
		if out[i], err = s.score(in.Values, slab[i*k:(i+1)*k:(i+1)*k]); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	return out, nil
}
