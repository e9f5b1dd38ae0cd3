package workflow

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// upperUnit returns a unit that upper-cases its "value" input.
func upperUnit(name string) Unit {
	return &FuncUnit{
		UnitName: name,
		In:       []string{"value"},
		Out:      []string{"value"},
		Fn: func(ctx context.Context, in Values) (Values, error) {
			return Values{"value": strings.ToUpper(in["value"])}, nil
		},
	}
}

func TestGraphConstruction(t *testing.T) {
	g := NewGraph("g")
	src := g.MustAdd("src", &ConstUnit{UnitName: "src", Values: Values{"value": "hi"}})
	_ = src
	g.MustAdd("up", upperUnit("up"))
	if err := g.Connect("src", "value", "up", "value"); err != nil {
		t.Fatal(err)
	}
	// Duplicate task ID rejected.
	if _, err := g.Add("src", upperUnit("dup")); err == nil {
		t.Fatal("duplicate task id accepted")
	}
	// Unknown endpoints rejected.
	if err := g.Connect("nope", "value", "up", "value"); err == nil {
		t.Fatal("cable from unknown task accepted")
	}
	if err := g.Connect("src", "bogus", "up", "value"); err == nil {
		t.Fatal("cable from unknown port accepted")
	}
	if err := g.Connect("src", "value", "up", "bogus"); err == nil {
		t.Fatal("cable to unknown port accepted")
	}
	// Double-feeding an input rejected.
	if err := g.Connect("src", "value", "up", "value"); err == nil {
		t.Fatal("second cable into the same input accepted")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCycleDetection(t *testing.T) {
	g := NewGraph("cyclic")
	g.MustAdd("a", upperUnit("a"))
	g.MustAdd("b", upperUnit("b"))
	g.MustConnect("a", "value", "b", "value")
	g.MustConnect("b", "value", "a", "value")
	if err := g.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("topo order of cyclic graph succeeded")
	}
}

func TestTopoOrderRespectsCables(t *testing.T) {
	g := NewGraph("order")
	g.MustAdd("c", upperUnit("c"))
	g.MustAdd("a", &ConstUnit{UnitName: "a", Values: Values{"value": "x"}})
	g.MustAdd("b", upperUnit("b"))
	g.MustConnect("a", "value", "b", "value")
	g.MustConnect("b", "value", "c", "value")
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, id := range order {
		pos[id] = i
	}
	if pos["a"] > pos["b"] || pos["b"] > pos["c"] {
		t.Fatalf("order = %v", order)
	}
}

func TestEngineRunsPipeline(t *testing.T) {
	g := NewGraph("pipe")
	g.MustAdd("src", &ConstUnit{UnitName: "src", Values: Values{"value": "hello"}})
	g.MustAdd("up", upperUnit("up"))
	v := &ViewerUnit{UnitName: "view"}
	g.MustAdd("view", v)
	g.MustConnect("src", "value", "up", "value")
	g.MustConnect("up", "value", "view", "value")
	res, err := NewEngine().Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Value("up", "value"); got != "HELLO" {
		t.Fatalf("up output = %q", got)
	}
	if seen := v.Seen(); len(seen) != 1 || seen[0] != "HELLO" {
		t.Fatalf("viewer saw %v", seen)
	}
}

func TestEngineParamsFeedUnconnectedInputs(t *testing.T) {
	g := NewGraph("params")
	task := g.MustAdd("up", upperUnit("up"))
	task.Params["value"] = "param"
	res, err := NewEngine().Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Value("up", "value"); got != "PARAM" {
		t.Fatalf("output = %q", got)
	}
}

func TestEngineParallelism(t *testing.T) {
	// Two slow independent tasks must overlap under the parallel engine.
	var running, peak int32
	slow := func(name string) Unit {
		return &FuncUnit{UnitName: name, In: nil, Out: []string{"out"},
			Fn: func(ctx context.Context, in Values) (Values, error) {
				cur := atomic.AddInt32(&running, 1)
				for {
					p := atomic.LoadInt32(&peak)
					if cur <= p || atomic.CompareAndSwapInt32(&peak, p, cur) {
						break
					}
				}
				time.Sleep(50 * time.Millisecond)
				atomic.AddInt32(&running, -1)
				return Values{"out": name}, nil
			}}
	}
	g := NewGraph("par")
	g.MustAdd("s1", slow("s1"))
	g.MustAdd("s2", slow("s2"))
	if _, err := NewEngine().Run(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&peak) < 2 {
		t.Fatalf("peak concurrency = %d, want 2", peak)
	}
}

func TestEngineSequentialMode(t *testing.T) {
	g := NewGraph("seq")
	g.MustAdd("a", &ConstUnit{UnitName: "a", Values: Values{"value": "1"}})
	g.MustAdd("b", upperUnit("b"))
	g.MustConnect("a", "value", "b", "value")
	e := &Engine{Workers: 1}
	if _, err := e.Run(context.Background(), g); err != nil {
		t.Fatal(err)
	}
}

func TestEngineFailurePropagates(t *testing.T) {
	g := NewGraph("fail")
	g.MustAdd("boom", &FuncUnit{UnitName: "boom", Out: []string{"x"},
		Fn: func(ctx context.Context, in Values) (Values, error) {
			return nil, fmt.Errorf("kaput")
		}})
	_, err := NewEngine().Run(context.Background(), g)
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("err = %v", err)
	}
}

func TestEngineContextCancellation(t *testing.T) {
	g := NewGraph("cancel")
	g.MustAdd("slow", &FuncUnit{UnitName: "slow", Out: []string{"x"},
		Fn: func(ctx context.Context, in Values) (Values, error) {
			select {
			case <-time.After(5 * time.Second):
				return Values{"x": "done"}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := NewEngine().Run(ctx, g); err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation not honoured promptly")
	}
}

// TestDiamondFanIn: a diamond-shaped graph (source -> two branches -> sink)
// must deliver both branch outputs to the sink exactly once, regardless of
// scheduling order.
func TestDiamondFanIn(t *testing.T) {
	mk := func(name, suffix string) Unit {
		return &FuncUnit{UnitName: name, In: []string{"value"}, Out: []string{"value"},
			Fn: func(ctx context.Context, in Values) (Values, error) {
				return Values{"value": in["value"] + suffix}, nil
			}}
	}
	join := &FuncUnit{UnitName: "join", In: []string{"left", "right"}, Out: []string{"both"},
		Fn: func(ctx context.Context, in Values) (Values, error) {
			return Values{"both": in["left"] + "|" + in["right"]}, nil
		}}
	for run := 0; run < 10; run++ { // repeat to shake out scheduling races
		g := NewGraph("diamond")
		g.MustAdd("src", &ConstUnit{UnitName: "src", Values: Values{"value": "x"}})
		g.MustAdd("a", mk("a", "A"))
		g.MustAdd("b", mk("b", "B"))
		g.MustAdd("join", join)
		g.MustConnect("src", "value", "a", "value")
		g.MustConnect("src", "value", "b", "value")
		g.MustConnect("a", "value", "join", "left")
		g.MustConnect("b", "value", "join", "right")
		res, err := NewEngine().Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := res.Value("join", "both"); got != "xA|xB" {
			t.Fatalf("run %d: join output = %q", run, got)
		}
	}
}

// TestWideFanOutCompletes: a single source feeding many parallel sinks must
// complete every task exactly once.
func TestWideFanOutCompletes(t *testing.T) {
	g := NewGraph("wide")
	g.MustAdd("src", &ConstUnit{UnitName: "src", Values: Values{"value": "v"}})
	const width = 40
	var counters [width]int32
	for i := 0; i < width; i++ {
		i := i
		id := fmt.Sprintf("sink%d", i)
		g.MustAdd(id, &FuncUnit{UnitName: id, In: []string{"value"}, Out: []string{"value"},
			Fn: func(ctx context.Context, in Values) (Values, error) {
				atomic.AddInt32(&counters[i], 1)
				return in, nil
			}})
		g.MustConnect("src", "value", id, "value")
	}
	res, err := NewEngine().Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != width+1 {
		t.Fatalf("outputs for %d tasks", len(res.Outputs))
	}
	for i := range counters {
		if atomic.LoadInt32(&counters[i]) != 1 {
			t.Fatalf("sink %d ran %d times", i, counters[i])
		}
	}
}
