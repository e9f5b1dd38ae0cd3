package classify

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/dataset"
	"repro/internal/parallel"
)

// Evaluation accumulates test results for a classifier, covering the
// "testing the discovered knowledge" requirement of §3 and the Grid-WEKA
// task list of §2 (labelling test data, testing a previously built
// classifier, cross-validation).
type Evaluation struct {
	ClassNames []string
	// Confusion[actual][predicted] accumulates instance weight.
	Confusion [][]float64
	// Total is the evaluated weight; Correct the correctly labelled weight.
	Total, Correct float64
}

// NewEvaluation returns an empty evaluation for the dataset's class labels.
func NewEvaluation(d *dataset.Dataset) (*Evaluation, error) {
	ca := d.ClassAttribute()
	if ca == nil || !ca.IsNominal() {
		return nil, fmt.Errorf("classify: evaluation needs a nominal class")
	}
	k := ca.NumValues()
	conf := make([][]float64, k)
	for i := range conf {
		conf[i] = make([]float64, k)
	}
	return &Evaluation{ClassNames: ca.Values(), Confusion: conf}, nil
}

// TestModel evaluates a trained classifier on every test instance with a
// known class.
func (e *Evaluation) TestModel(c Classifier, test *dataset.Dataset) error {
	for _, in := range test.Instances {
		actual := in.Values[test.ClassIndex]
		if dataset.IsMissing(actual) {
			continue
		}
		pred, err := Predict(c, in)
		if err != nil {
			return err
		}
		e.Record(int(actual), pred, in.Weight)
	}
	return nil
}

// Record adds one labelled prediction.
func (e *Evaluation) Record(actual, predicted int, weight float64) {
	e.Confusion[actual][predicted] += weight
	e.Total += weight
	if actual == predicted {
		e.Correct += weight
	}
}

// Accuracy returns the fraction of correctly classified weight.
func (e *Evaluation) Accuracy() float64 {
	if e.Total == 0 {
		return 0
	}
	return e.Correct / e.Total
}

// ErrorRate returns 1 - Accuracy.
func (e *Evaluation) ErrorRate() float64 { return 1 - e.Accuracy() }

// Kappa returns Cohen's kappa statistic of the confusion matrix.
func (e *Evaluation) Kappa() float64 {
	if e.Total == 0 {
		return 0
	}
	k := len(e.Confusion)
	rowSum := make([]float64, k)
	colSum := make([]float64, k)
	for i := range e.Confusion {
		for j, w := range e.Confusion[i] {
			rowSum[i] += w
			colSum[j] += w
		}
	}
	var expected float64
	for i := 0; i < k; i++ {
		expected += rowSum[i] * colSum[i]
	}
	expected /= e.Total * e.Total
	observed := e.Accuracy()
	if expected >= 1 {
		return 0
	}
	return (observed - expected) / (1 - expected)
}

// Precision returns the precision of class c (TP / predicted-as-c).
func (e *Evaluation) Precision(c int) float64 {
	var predicted float64
	for i := range e.Confusion {
		predicted += e.Confusion[i][c]
	}
	if predicted == 0 {
		return 0
	}
	return e.Confusion[c][c] / predicted
}

// Recall returns the recall of class c (TP / actual-c).
func (e *Evaluation) Recall(c int) float64 {
	var actual float64
	for _, w := range e.Confusion[c] {
		actual += w
	}
	if actual == 0 {
		return 0
	}
	return e.Confusion[c][c] / actual
}

// F1 returns the harmonic mean of precision and recall for class c.
func (e *Evaluation) F1(c int) float64 {
	p, r := e.Precision(c), e.Recall(c)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the evaluation in a WEKA-like summary layout.
func (e *Evaluation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Correctly Classified Instances   %8.2f  %7.3f %%\n", e.Correct, 100*e.Accuracy())
	fmt.Fprintf(&b, "Incorrectly Classified Instances %8.2f  %7.3f %%\n", e.Total-e.Correct, 100*e.ErrorRate())
	fmt.Fprintf(&b, "Kappa statistic                  %10.4f\n", e.Kappa())
	fmt.Fprintf(&b, "Total Number of Instances        %8.2f\n\n", e.Total)
	b.WriteString("=== Confusion Matrix ===\n")
	for i, row := range e.Confusion {
		for _, w := range row {
			fmt.Fprintf(&b, "%8.1f", w)
		}
		fmt.Fprintf(&b, " | actual %s\n", e.ClassNames[i])
	}
	b.WriteString("\n=== Detailed Accuracy By Class ===\n")
	fmt.Fprintf(&b, "%-24s %9s %9s %9s\n", "class", "precision", "recall", "f1")
	for c, name := range e.ClassNames {
		fmt.Fprintf(&b, "%-24s %9.3f %9.3f %9.3f\n", name, e.Precision(c), e.Recall(c), e.F1(c))
	}
	return b.String()
}

// record is one labelled prediction, buffered so parallel folds can
// replay into the pooled Evaluation in deterministic order.
type record struct {
	actual, predicted int
	weight            float64
}

// CrossValidateContext runs stratified k-fold cross-validation,
// constructing a fresh classifier via factory for each fold, training
// folds in parallel, and returns the pooled evaluation. Fold membership
// depends only on (d, k, seed). Each fold buffers its predictions and
// the pooled Evaluation replays them in fold order, so the float sums
// are bit-identical at any GOMAXPROCS. Cancelling ctx aborts remaining
// folds and returns ctx.Err().
func CrossValidateContext(ctx context.Context, factory Factory, d *dataset.Dataset, k int, seed int64) (*Evaluation, error) {
	if err := checkTrainable(d); err != nil {
		return nil, err
	}
	e, err := NewEvaluation(d)
	if err != nil {
		return nil, err
	}
	folds, err := dataset.FoldsView(d, k, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	recs := make([][]record, len(folds))
	st, err := parallel.ForEachStats(ctx, len(folds), func(i int) error {
		train, test := dataset.TrainTestViewForFold(d, folds, i)
		c := factory()
		if err := TrainWith(ctx, c, train.Materialize()); err != nil {
			return foldErr(i, err)
		}
		buf, err := testFold(c, test)
		if err != nil {
			return foldErr(i, err)
		}
		recs[i] = buf
		return nil
	})
	parallel.Observe(nil, "crossvalidate", st)
	if err != nil {
		return nil, err
	}
	for _, buf := range recs {
		for _, r := range buf {
			e.Record(r.actual, r.predicted, r.weight)
		}
	}
	return e, nil
}

func foldErr(i int, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("classify: fold %d: %w", i, err)
}

// testFold evaluates a trained classifier over a test view, returning one
// record per labelled instance in row order.
func testFold(c Classifier, test *dataset.View) ([]record, error) {
	classIdx := test.Parent().ClassIndex
	out := make([]record, 0, test.NumInstances())
	for i := 0; i < test.NumInstances(); i++ {
		in := test.Instance(i)
		actual := in.Values[classIdx]
		if dataset.IsMissing(actual) {
			continue
		}
		pred, err := Predict(c, in)
		if err != nil {
			return nil, err
		}
		out = append(out, record{int(actual), pred, in.Weight})
	}
	return out, nil
}

// Label predicts a class name for every instance of unlabelled (its class
// cells may be missing) using a previously built classifier — the Grid-WEKA
// "labelling of test data using a previously built classifier" task.
func Label(c Classifier, unlabelled *dataset.Dataset) ([]string, error) {
	ca := unlabelled.ClassAttribute()
	if ca == nil {
		return nil, fmt.Errorf("classify: Label needs a designated class attribute")
	}
	out := make([]string, unlabelled.NumInstances())
	for i, in := range unlabelled.Instances {
		p, err := Predict(c, in)
		if err != nil {
			return nil, err
		}
		out[i] = ca.Value(p)
	}
	return out, nil
}
