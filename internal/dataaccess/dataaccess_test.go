package dataaccess

import (
	"strings"
	"testing"

	"repro/internal/arff"
	"repro/internal/datagen"
)

func db(t *testing.T) *Database {
	t.Helper()
	d := NewDatabase()
	if err := d.CreateTable("breast_cancer", datagen.BreastCancer()); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("weather", datagen.WeatherNumeric()); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCreateDropList(t *testing.T) {
	d := db(t)
	if got := d.Tables(); len(got) != 2 || got[0] != "breast_cancer" {
		t.Fatalf("tables = %v", got)
	}
	if err := d.CreateTable("weather", datagen.Weather()); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if err := d.CreateTable("", datagen.Weather()); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestCreateIsDeepCopy(t *testing.T) {
	src := datagen.Weather()
	d := NewDatabase()
	if err := d.CreateTable("w", src); err != nil {
		t.Fatal(err)
	}
	src.Instances[0].Values[0] = 2 // mutate after registration
	res, err := d.Run(Query{Table: "w", Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances[0].Values[0] == 2 {
		t.Fatal("table aliases the source dataset")
	}
}

func TestDescribe(t *testing.T) {
	d := db(t)
	specs, err := d.Describe("weather")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 5 || !strings.Contains(specs[1], "temperature numeric") {
		t.Fatalf("schema = %v", specs)
	}
	if _, err := d.Describe("ghost"); err == nil {
		t.Fatal("unknown table described")
	}
}

func TestQuerySelection(t *testing.T) {
	d := db(t)
	// Nominal equality.
	res, err := d.Run(Query{Table: "breast_cancer",
		Where: []Condition{{Attribute: "node-caps", Op: Eq, Value: "yes"}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumInstances() == 0 || res.NumInstances() > 100 {
		t.Fatalf("node-caps=yes rows = %d", res.NumInstances())
	}
	_, col := res.AttributeByName("node-caps")
	for _, in := range res.Instances {
		if res.Attrs[col].Value(int(in.Values[col])) != "yes" {
			t.Fatal("selection leaked a non-matching row")
		}
	}
	// Numeric range on weather.
	res, err = d.Run(Query{Table: "weather",
		Where: []Condition{{Attribute: "temperature", Op: gt, Value: "75"}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range res.Instances {
		if in.Values[1] <= 75 {
			t.Fatalf("temperature %v leaked", in.Values[1])
		}
	}
	// Conjunction.
	res, err = d.Run(Query{Table: "weather", Where: []Condition{
		{Attribute: "temperature", Op: ge, Value: "70"},
		{Attribute: "outlook", Op: Eq, Value: "sunny"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range res.Instances {
		if in.Values[1] < 70 || res.Attrs[0].Value(int(in.Values[0])) != "sunny" {
			t.Fatal("conjunction violated")
		}
	}
}

func TestQueryProjectionAndLimit(t *testing.T) {
	d := db(t)
	res, err := d.Run(Query{Table: "breast_cancer",
		Columns: []string{"node-caps", "deg-malig", "Class"}, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumAttributes() != 3 || res.NumInstances() != 10 {
		t.Fatalf("shape %dx%d", res.NumInstances(), res.NumAttributes())
	}
}

func TestQueryErrors(t *testing.T) {
	d := db(t)
	cases := []Query{
		{Table: "ghost"},
		{Table: "weather", Columns: []string{"nope"}},
		{Table: "weather", Where: []Condition{{Attribute: "nope", Op: Eq, Value: "x"}}},
		{Table: "weather", Where: []Condition{{Attribute: "temperature", Op: Eq, Value: "warm"}}},
		{Table: "weather", Where: []Condition{{Attribute: "outlook", Op: lt, Value: "sunny"}}},
		{Table: "weather", Where: []Condition{{Attribute: "outlook", Op: Eq, Value: "cloudy"}}},
	}
	for i, q := range cases {
		if _, err := d.Run(q); err == nil {
			t.Errorf("case %d accepted: %+v", i, q)
		}
	}
}

func TestParseConditions(t *testing.T) {
	conds, err := ParseConditions("node-caps=yes; deg-malig != 2 ;temperature<=75")
	if err != nil {
		t.Fatal(err)
	}
	if len(conds) != 3 {
		t.Fatalf("conds = %v", conds)
	}
	if conds[0].Op != Eq || conds[1].Op != ne || conds[2].Op != le {
		t.Fatalf("ops = %v", conds)
	}
	if conds[2].Attribute != "temperature" || conds[2].Value != "75" {
		t.Fatalf("cond = %+v", conds[2])
	}
	if got, err := ParseConditions(""); err != nil || got != nil {
		t.Fatalf("empty clause: %v %v", got, err)
	}
	if _, err := ParseConditions("nonsense"); err == nil {
		t.Fatal("operator-less clause accepted")
	}
}

func TestQueryARFFFlowsIntoMining(t *testing.T) {
	d := db(t)
	text, err := d.QueryARFF(Query{Table: "breast_cancer",
		Columns: []string{"node-caps", "deg-malig", "irradiat", "Class"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := arff.ParseString(text)
	if err != nil {
		t.Fatalf("query result is not valid ARFF: %v", err)
	}
	if res.NumInstances() != 286 || res.NumAttributes() != 4 {
		t.Fatalf("shape %dx%d", res.NumInstances(), res.NumAttributes())
	}
}
