package workflow

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestPatternOperators is experiment E14: the structural and behavioural
// pattern operators of ref [9] manipulating workflows.
func TestPatternOperators(t *testing.T) {
	t.Run("Pipeline", func(t *testing.T) {
		g, err := Pipeline("p", "value",
			&ConstUnit{UnitName: "src", Values: Values{"value": "ab"}},
			upperUnit("u1"),
			&ViewerUnit{UnitName: "sink"},
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewEngine().Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := res.Value("stage2", "value"); got != "AB" {
			t.Fatalf("pipeline output = %q", got)
		}
		if _, err := Pipeline("empty", "v"); err == nil {
			t.Fatal("empty pipeline accepted")
		}
	})

	t.Run("Farm", func(t *testing.T) {
		worker := func(i int) Unit {
			return &FuncUnit{UnitName: fmt.Sprintf("w%d", i),
				In: []string{"value"}, Out: []string{"value"},
				Fn: func(ctx context.Context, in Values) (Values, error) {
					return Values{"value": fmt.Sprintf("%s-%d", in["value"], i)}, nil
				}}
		}
		collect := &FuncUnit{UnitName: "collect",
			In:  []string{"in0", "in1", "in2"},
			Out: []string{"all"},
			Fn: func(ctx context.Context, in Values) (Values, error) {
				return Values{"all": in["in0"] + "|" + in["in1"] + "|" + in["in2"]}, nil
			}}
		g, err := Farm("farm", &ConstUnit{UnitName: "src", Values: Values{"value": "x"}},
			worker, 3, collect, "value", "value", "in")
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewEngine().Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := res.Value("collect", "all")
		if got != "x-0|x-1|x-2" {
			t.Fatalf("farm output = %q", got)
		}
	})

	t.Run("Replace", func(t *testing.T) {
		g := NewGraph("r")
		g.MustAdd("src", &ConstUnit{UnitName: "src", Values: Values{"value": "hi"}})
		g.MustAdd("stage", upperUnit("original"))
		g.MustConnect("src", "value", "stage", "value")
		reverse := &FuncUnit{UnitName: "reverse", In: []string{"value"}, Out: []string{"value"},
			Fn: func(ctx context.Context, in Values) (Values, error) {
				rs := []rune(in["value"])
				for i, j := 0, len(rs)-1; i < j; i, j = i+1, j-1 {
					rs[i], rs[j] = rs[j], rs[i]
				}
				return Values{"value": string(rs)}, nil
			}}
		if err := Replace(g, "stage", reverse); err != nil {
			t.Fatal(err)
		}
		res, err := NewEngine().Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := res.Value("stage", "value"); got != "ih" {
			t.Fatalf("replaced output = %q", got)
		}
		// Incompatible replacement rejected.
		incompatible := &FuncUnit{UnitName: "bad", In: []string{"other"}, Out: []string{"other"},
			Fn: func(ctx context.Context, in Values) (Values, error) { return in, nil }}
		if err := Replace(g, "stage", incompatible); err == nil {
			t.Fatal("incompatible replacement accepted")
		}
		if err := Replace(g, "ghost", reverse); err == nil {
			t.Fatal("replacing unknown task accepted")
		}
	})

	t.Run("Replicate", func(t *testing.T) {
		g := NewGraph("rep")
		g.MustAdd("src", &ConstUnit{UnitName: "src", Values: Values{"value": "v"}})
		g.MustAdd("stage", upperUnit("stage"))
		g.MustConnect("src", "value", "stage", "value")
		ids, err := Replicate(g, "stage", 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 2 {
			t.Fatalf("replicas = %v", ids)
		}
		res, err := NewEngine().Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range append(ids, "stage") {
			if got, _ := res.Value(id, "value"); got != "V" {
				t.Fatalf("replica %s output = %q", id, got)
			}
		}
	})

	t.Run("Probe", func(t *testing.T) {
		g := NewGraph("probe")
		g.MustAdd("src", &ConstUnit{UnitName: "src", Values: Values{"value": "watched"}})
		v, err := Probe(g, "src", "value")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewEngine().Run(context.Background(), g); err != nil {
			t.Fatal(err)
		}
		if seen := v.Seen(); len(seen) != 1 || seen[0] != "watched" {
			t.Fatalf("probe saw %v", seen)
		}
	})

	t.Run("BroadcastRename", func(t *testing.T) {
		g := NewGraph("br")
		g.MustAdd("src", &ConstUnit{UnitName: "src", Values: Values{"value": "x"}})
		g.MustAdd("bc", Broadcast("bc", "value", "a", "b"))
		g.MustAdd("rn", Rename("rn", "a", "value"))
		g.MustConnect("src", "value", "bc", "value")
		g.MustConnect("bc", "a", "rn", "a")
		res, err := NewEngine().Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := res.Value("rn", "value"); got != "x" {
			t.Fatalf("rename output = %q", got)
		}
		if got, _ := res.Value("bc", "b"); got != "x" {
			t.Fatalf("broadcast output = %q", got)
		}
	})
}

// TestServiceGrouping is the paper's service-hierarchy capability (§2): a
// subgraph wrapped as a single unit with mapped ports.
func TestServiceGrouping(t *testing.T) {
	inner := NewGraph("inner")
	inner.MustAdd("up", upperUnit("up"))
	inner.MustAdd("wrap", &FuncUnit{UnitName: "wrap", In: []string{"value"}, Out: []string{"value"},
		Fn: func(ctx context.Context, in Values) (Values, error) {
			return Values{"value": "[" + in["value"] + "]"}, nil
		}})
	inner.MustConnect("up", "value", "wrap", "value")

	group := &groupUnit{
		GroupName: "UpAndWrap",
		Graph:     inner,
		InMap:     []portMap{{Outer: "text", Task: "up", Port: "value"}},
		OutMap:    []portMap{{Outer: "result", Task: "wrap", Port: "value"}},
	}
	if got := group.Inputs(); len(got) != 1 || got[0] != "text" {
		t.Fatalf("group inputs = %v", got)
	}
	outer := NewGraph("outer")
	outer.MustAdd("src", &ConstUnit{UnitName: "src", Values: Values{"text": "hi"}})
	outer.MustAdd("grp", group)
	outer.MustConnect("src", "text", "grp", "text")
	res, err := NewEngine().Run(context.Background(), outer)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Value("grp", "result"); got != "[HI]" {
		t.Fatalf("group output = %q", got)
	}
	// Bad output mapping surfaces as an error.
	badGroup := &groupUnit{GroupName: "bad", Graph: inner,
		OutMap: []portMap{{Outer: "x", Task: "ghost", Port: "value"}}}
	if _, err := badGroup.Run(context.Background(), Values{}); err == nil {
		t.Fatal("bad group mapping accepted")
	}
}

func TestLoopUnit(t *testing.T) {
	// Body doubles a counter; loop until it exceeds 10.
	body := &FuncUnit{UnitName: "double", In: []string{"n"}, Out: []string{"n"},
		Fn: func(ctx context.Context, in Values) (Values, error) {
			var n int
			_, err := fmt.Sscanf(in["n"], "%d", &n)
			if err != nil {
				return nil, err
			}
			return Values{"n": fmt.Sprintf("%d", n*2)}, nil
		}}
	loop := &loopUnit{LoopName: "until10", Body: body, MaxIterations: 50,
		Cond: func(i int, out Values) bool { return !strings.HasPrefix(out["n"], "1") || out["n"] == "1" }}
	out, err := loop.Run(context.Background(), Values{"n": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if out["n"] != "16" { // 1→2→4→8→16 (first value starting with "1" again)
		t.Fatalf("loop output = %q", out["n"])
	}
	// Iteration bound enforced.
	forever := &loopUnit{LoopName: "forever", Body: body, MaxIterations: 3,
		Cond: func(i int, out Values) bool { return true }}
	if _, err := forever.Run(context.Background(), Values{"n": "1"}); err == nil {
		t.Fatal("unbounded loop terminated without error")
	}
}
