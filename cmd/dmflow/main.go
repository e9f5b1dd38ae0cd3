// Command dmflow executes a workflow XML file — the headless enactor
// counterpart of pressing "run" in the composition workspace. Progress
// events (started / finished / failed / retried / replayed) stream to
// stderr; final task outputs print to stdout.
//
// With -journal the run is durable: every completed step is fsynced to a
// step journal, and re-running the same command after a crash (-resume)
// replays the journaled steps instead of re-invoking their services.
//
// Usage:
//
//	dmflow workflow.xml
//	dmflow -dax workflow.xml      # print the GriPhyN DAX export instead
//	dmflow -sequential workflow.xml
//	dmflow -journal run.jsonl workflow.xml           # durable first run
//	dmflow -journal run.jsonl -resume workflow.xml   # resume after a crash
//	dmflow -journal run.jsonl -report                # inspect the journal
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"repro/internal/workflow"
)

func main() {
	dax := flag.Bool("dax", false, "print the DAX export of the workflow instead of running it")
	sequential := flag.Bool("sequential", false, "disable parallel task execution")
	journalPath := flag.String("journal", "", "journal completed steps to this file (fsynced, crash-safe)")
	resume := flag.Bool("resume", false, "allow resuming from a non-empty journal (replays completed steps)")
	report := flag.Bool("report", false, "print the journal's per-step outcomes and exit (needs -journal)")
	deadline := flag.Duration("deadline", 0, "overall run deadline, budgeted across the critical path (0 = none)")
	flag.Parse()

	if *report {
		if *journalPath == "" {
			log.Fatal("dmflow: -report needs -journal")
		}
		if err := printReport(*journalPath); err != nil {
			log.Fatalf("dmflow: %v", err)
		}
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatalf("dmflow: %v", err)
	}
	g, err := workflow.UnmarshalXML(f)
	f.Close()
	if err != nil {
		log.Fatalf("dmflow: %v", err)
	}
	if *dax {
		doc, err := workflow.MarshalDAX(g)
		if err != nil {
			log.Fatalf("dmflow: %v", err)
		}
		os.Stdout.Write(doc)
		return
	}
	eng := workflow.NewEngine()
	if *sequential {
		eng.Workers = 1
	}
	eng.Monitor = func(ev workflow.Event) {
		if ev.Err != nil {
			fmt.Fprintf(os.Stderr, "[%s] %s (%s): %v\n",
				ev.Kind, ev.TaskID, ev.UnitName, ev.Err)
			return
		}
		fmt.Fprintf(os.Stderr, "[%s] %s (%s)\n", ev.Kind, ev.TaskID, ev.UnitName)
	}

	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	var res *workflow.Result
	if *journalPath != "" {
		j, jerr := workflow.OpenJournal(*journalPath)
		if jerr != nil {
			log.Fatalf("dmflow: %v", jerr)
		}
		if j.Len() > 0 && !*resume {
			j.Close()
			log.Fatalf("dmflow: journal %s already holds %d step(s); pass -resume to continue it or point -journal at a fresh file",
				*journalPath, j.Len())
		}
		res, err = eng.Resume(ctx, g, j)
		if cerr := j.Close(); cerr != nil && err == nil {
			err = cerr
		}
	} else {
		res, err = eng.Run(ctx, g)
	}
	if err != nil {
		log.Fatalf("dmflow: %v", err)
	}
	ids := make([]string, 0, len(res.Outputs))
	for id := range res.Outputs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ports := make([]string, 0, len(res.Outputs[id]))
		for p := range res.Outputs[id] {
			ports = append(ports, p)
		}
		sort.Strings(ports)
		for _, p := range ports {
			fmt.Printf("=== %s.%s ===\n%s\n", id, p, res.Outputs[id][p])
		}
	}
}

// printReport renders the journal's step outcomes: one line per record
// in journal order, then a summary. The journal is the source of truth —
// the workflow XML is not needed. Reporting never creates the file: a
// mistyped path is an error, not an empty report.
func printReport(path string) error {
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("no such journal: %w", err)
	}
	j, err := workflow.OpenJournal(path)
	if err != nil {
		return err
	}
	defer j.Close()
	recs := j.Records()
	if len(recs) == 0 {
		fmt.Printf("journal %s: empty\n", path)
		return nil
	}
	ok := 0
	fmt.Printf("%-20s %-24s %-8s %8s %6s %10s  %s\n",
		"STEP", "UNIT", "STATUS", "ATTEMPTS", "HEDGE", "WALL_MS", "STARTED")
	for _, r := range recs {
		if r.Status == workflow.StepOK {
			ok++
		}
		detail := ""
		if r.Error != "" {
			detail = "  " + r.Error
		}
		fmt.Printf("%-20s %-24s %-8s %8d %6d %10.1f  %s%s\n",
			r.Step, r.Unit, r.Status, r.Attempts, r.HedgeWins,
			r.WallMS, r.Started.Format(time.RFC3339), detail)
	}
	fmt.Printf("%d step(s): %d completed, %d failed\n", len(recs), ok, len(recs)-ok)
	return nil
}
