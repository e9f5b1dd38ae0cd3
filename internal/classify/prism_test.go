package classify

import (
	"context"
	"strings"
	"testing"

	"repro/internal/datagen"
)

func TestPrismContactLenses(t *testing.T) {
	// PRISM's original evaluation dataset: it must fit the deterministic
	// contact-lenses function perfectly.
	d := datagen.ContactLenses()
	p := &prism{}
	if err := p.Train(d); err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluation(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.TestModel(p, d); err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy() != 1 {
		t.Fatalf("Prism training accuracy = %v\n%s", ev.Accuracy(), p.String())
	}
	if len(p.rules) < 3 {
		t.Fatalf("only %d rules", len(p.rules))
	}
	s := p.String()
	if !strings.Contains(s, "If tear-prod-rate = reduced then none") {
		t.Fatalf("canonical rule missing:\n%s", s)
	}
}

func TestPrismWeather(t *testing.T) {
	d := datagen.Weather()
	p := &prism{}
	if err := p.Train(d); err != nil {
		t.Fatal(err)
	}
	ev, _ := NewEvaluation(d)
	if err := ev.TestModel(p, d); err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy() < 0.9 {
		t.Fatalf("accuracy = %v\n%s", ev.Accuracy(), p.String())
	}
}

func TestPrismRejectsNumeric(t *testing.T) {
	if err := (&prism{}).Train(datagen.WeatherNumeric()); err == nil {
		t.Fatal("numeric attributes accepted")
	}
}

func TestPrismBreastCancerBeatsBaseline(t *testing.T) {
	d := datagen.BreastCancer()
	ev, err := CrossValidateContext(context.Background(), func() Classifier { return &prism{} }, d, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Rule learners overfit this noisy data relative to J48, but must stay
	// above chance (50%) and produce a full evaluation.
	if ev.Accuracy() < 0.55 {
		t.Fatalf("Prism CV accuracy = %v", ev.Accuracy())
	}
	if int(ev.Total) != 286 {
		t.Fatalf("evaluated %v", ev.Total)
	}
}

func TestPrismRegistered(t *testing.T) {
	c, err := New("Prism")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "Prism" {
		t.Fatalf("name = %q", c.Name())
	}
}
