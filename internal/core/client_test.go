package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/services"
	"repro/internal/wire"
)

// TestClientTrain drives the typed client's training call against an
// in-process deployment.
func TestClientTrain(t *testing.T) {
	d := deploy(t)
	c := NewClient(d.BaseURL)
	ctx := context.Background()

	names, err := c.Classifiers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(classify.Names()) {
		t.Fatalf("Classifiers() = %d names, want %d", len(names), len(classify.Names()))
	}

	opts := TrainOptions{Dataset: datagen.Weather(), Classifier: "J48", Class: "play"}
	res, err := c.Train(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy <= 0 || res.Accuracy > 1 {
		t.Fatalf("accuracy %v out of range", res.Accuracy)
	}
	if !strings.Contains(res.Model, "J48") {
		t.Fatalf("model text is not a J48 tree:\n%s", res.Model)
	}
	if res.Evaluation == "" {
		t.Fatal("empty evaluation")
	}
}

// TestClientValidation pins the client-side errors that never reach the
// wire.
func TestClientValidation(t *testing.T) {
	c := NewClient("http://127.0.0.1:1")
	ctx := context.Background()
	if _, err := c.Train(ctx, TrainOptions{Classifier: "J48"}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := c.Train(ctx, TrainOptions{Dataset: datagen.Weather()}); err == nil {
		t.Fatal("empty classifier accepted")
	}
	if _, err := c.ClassifyBatch(ctx, "tok", nil); err == nil {
		t.Fatal("nil view accepted")
	}
}

// TestClientSessionBatch is the typed batch path end to end: create a
// session, score over XML one-at-a-time and over dmb1 in one shot, and
// require bit-identical labels and distributions between the two.
func TestClientSessionBatch(t *testing.T) {
	d := deploy(t)
	c := NewClient(d.BaseURL)
	ctx := context.Background()

	train := datagen.BreastCancer()
	token, err := c.CreateSession(ctx, TrainOptions{
		Dataset: train, Classifier: "NaiveBayes", Class: "Class",
	})
	if err != nil {
		t.Fatal(err)
	}

	batch := train.Clone()
	xmlLabels, err := c.Classify(ctx, token, batch.Clone())
	if err != nil {
		t.Fatal(err)
	}
	labels, err := c.ClassifyBatch(ctx, token, dataset.All(batch))
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != batch.NumInstances() || len(labels) != len(xmlLabels) {
		t.Fatalf("got %d batch / %d xml labels for %d rows",
			len(labels), len(xmlLabels), batch.NumInstances())
	}
	for i, l := range labels {
		if l.Name != xmlLabels[i] {
			t.Fatalf("row %d: batch label %q, xml label %q", i, l.Name, xmlLabels[i])
		}
		sum := 0.0
		for _, p := range l.Distribution {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d: distribution sums to %v", i, sum)
		}
		ca := batch.ClassAttribute()
		if l.Index < 0 || l.Index >= ca.NumValues() || ca.Value(l.Index) != l.Name {
			t.Fatalf("row %d: label index %d / name %q disagree", i, l.Index, l.Name)
		}
	}

	// Scoring a sub-view ships only the selected rows.
	sub := dataset.NewView(batch, []int{0, 5, 9})
	subLabels, err := c.ClassifyBatch(ctx, token, sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(subLabels) != 3 {
		t.Fatalf("sub-view batch returned %d labels, want 3", len(subLabels))
	}
	for k, row := range []int{0, 5, 9} {
		if subLabels[k].Name != labels[row].Name {
			t.Fatalf("sub-view row %d label %q, full batch says %q",
				row, subLabels[k].Name, labels[row].Name)
		}
	}

	if err := c.CloseSession(ctx, token); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ClassifyBatch(ctx, token, dataset.All(batch)); err == nil {
		t.Fatal("closed session still scores")
	}
}

// TestDecodeLabelsSlab: decodeLabels carves every row's distribution from
// one slab, in class order, and no row's slice reaches into the next.
func TestDecodeLabelsSlab(t *testing.T) {
	payload, err := wire.MarshalResultBase64(&wire.Result{
		Classes:       []string{"no", "yes"},
		Labels:        []int{1, 0, 1},
		Distributions: [][]float64{{0.25, 0.75, 0.5}, {0.75, 0.25, 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := decodeLabels(map[string]string{services.PartPayload: payload}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{0.25, 0.75}, {0.75, 0.25}, {0.5, 0.5}}
	for i, l := range labels {
		if l.Name != []string{"yes", "no", "yes"}[i] || cap(l.Distribution) != 2 ||
			l.Distribution[0] != want[i][0] || l.Distribution[1] != want[i][1] {
			t.Fatalf("row %d = %+v, want distribution %v", i, l, want[i])
		}
	}
	_ = append(labels[0].Distribution, 9)
	if labels[1].Distribution[0] != 0.75 {
		t.Fatal("appending to row 0's distribution overwrote row 1's")
	}
	if _, err := decodeLabels(map[string]string{services.PartPayload: payload}, 4); err == nil {
		t.Fatal("a 3-row result was accepted for 4 rows")
	}
}
