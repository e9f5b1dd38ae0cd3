// Command dmexp is the batch experiment runner: it expands a declarative
// algorithm × dataset × hyper-parameter spec into jobs and drives them
// through the fault-tolerant parallel scheduler of internal/experiment,
// checkpointing every outcome to a JSON-lines journal (FlexDM-style).
//
// Usage:
//
//	dmexp run    -spec spec.json [-journal batch.jsonl] [-workers N]
//	             [-timeout 2m] [-retries 2] [-registry URL | -endpoints a,b]
//	             [-resume] [-v]
//	dmexp resume -spec spec.json -journal batch.jsonl [...]     (run -resume)
//	dmexp report -journal batch.jsonl
//
// A killed run restarts with -resume (or the resume subcommand): jobs with
// a completed journal record are skipped, everything else re-executes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		runCmd(os.Args[2:], false)
	case "resume":
		runCmd(os.Args[2:], true)
	case "report":
		reportCmd(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "dmexp: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `dmexp — batch experiment engine

  dmexp run    -spec spec.json [-journal batch.jsonl] [flags]   execute a spec
  dmexp resume -spec spec.json -journal batch.jsonl [flags]     continue a killed batch
  dmexp report -journal batch.jsonl                             report from the journal

run/resume flags:
  -spec file        experiment spec (JSON; see README "Batch experiments")
  -journal file     checkpoint journal (JSON lines); required for resume
  -workers N        worker pool size (default NumCPU)
  -timeout D        per-job-attempt timeout, e.g. 90s (default none)
  -retries N        retries per job on transient errors (default 2)
  -registry URL     discover classifier services from this registry and
                    dispatch jobs remotely instead of in-process; the
                    registry is re-inquired when endpoints fail
  -endpoints a,b    dispatch to these SOAP classifier endpoints directly
  -breaker-failures N  consecutive failures that trip an endpoint's
                    circuit breaker (default 5)
  -metrics-out file write the client-side metrics snapshot (breaker
                    opens, ejections, retries) as JSON after the batch
  -resume           skip jobs already completed in the journal
  -v                log per-job scheduler events
  -trace            print the batch's trace tree (per-job spans and their
                    SOAP calls) when the run finishes
  -log-level L      structured log level: debug|info|warn|error|off
`)
}

func runCmd(args []string, resumeDefault bool) {
	fs := flag.NewFlagSet("dmexp run", flag.ExitOnError)
	specPath := fs.String("spec", "", "experiment spec JSON file")
	journalPath := fs.String("journal", "", "checkpoint journal path (JSON lines)")
	workers := fs.Int("workers", 0, "worker pool size (0 = NumCPU)")
	timeout := fs.Duration("timeout", 0, "per-job-attempt timeout (0 = none)")
	retries := fs.Int("retries", 2, "retries per job on transient errors")
	registryURL := fs.String("registry", "", "registry URL for remote dispatch")
	endpoints := fs.String("endpoints", "", "comma-separated SOAP classifier endpoints for remote dispatch")
	breakerFailures := fs.Int("breaker-failures", 0, "consecutive failures tripping an endpoint breaker (0 = default 5)")
	metricsOut := fs.String("metrics-out", "", "write the client-side metrics snapshot as JSON to this file after the batch")
	resume := fs.Bool("resume", resumeDefault, "skip jobs completed in the journal")
	verbose := fs.Bool("v", false, "log scheduler events")
	trace := fs.Bool("trace", false, "collect spans and print the batch's trace tree on completion")
	logLevel := fs.String("log-level", "", "structured log level: debug|info|warn|error|off (default warn, info with -v)")
	_ = fs.Parse(args)

	switch {
	case *logLevel != "":
		lvl, err := obs.ParseLevel(*logLevel)
		if err != nil {
			fatal(err)
		}
		obs.SetDefaultLevel(lvl)
	case *verbose:
		obs.SetDefaultLevel(obs.LevelInfo)
	}

	if *specPath == "" {
		fatal("dmexp: -spec is required")
	}
	spec, err := experiment.LoadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	jobs, err := spec.Expand()
	if err != nil {
		fatal(err)
	}
	data, err := spec.Materialize()
	if err != nil {
		fatal(err)
	}

	var journal *experiment.Journal
	if *journalPath != "" {
		journal, err = experiment.OpenJournal(*journalPath)
		if err != nil {
			fatal(err)
		}
		defer journal.Close()
		if journal.Len() > 0 && !*resume {
			fatal(fmt.Sprintf("dmexp: journal %s already has %d records; use -resume to continue the batch or point -journal at a fresh file",
				*journalPath, journal.Len()))
		}
	} else if *resume {
		fatal("dmexp: -resume needs -journal")
	}

	var exec experiment.Executor = experiment.Local{}
	switch {
	case *registryURL != "":
		remote, err := experiment.DiscoverRemote(*registryURL, nil)
		if err != nil {
			fatal(err)
		}
		remote.Breaker.FailureThreshold = *breakerFailures
		fmt.Fprintf(os.Stderr, "dmexp: dispatching to %d classifier service(s) from %s\n",
			len(remote.Endpoints()), *registryURL)
		exec = remote
	case *endpoints != "":
		remote, err := experiment.NewRemote(strings.Split(*endpoints, ",")...)
		if err != nil {
			fatal(err)
		}
		remote.Breaker.FailureThreshold = *breakerFailures
		exec = remote
	}

	sched := &experiment.Scheduler{
		Workers:    *workers,
		JobTimeout: *timeout,
		MaxRetries: *retries,
	}
	if *verbose {
		sched.Monitor = func(ev experiment.Event) {
			switch ev.Kind {
			case experiment.JobFailed:
				fmt.Fprintf(os.Stderr, "[%s] %s attempt %d: %v (%s)\n",
					ev.Kind, ev.Job.ID, ev.Attempt, ev.Err, ev.Duration.Round(time.Millisecond))
			case experiment.JobRetrying:
				fmt.Fprintf(os.Stderr, "[%s] %s attempt %d after %s\n",
					ev.Kind, ev.Job.ID, ev.Attempt, ev.Wait.Round(time.Millisecond))
			default:
				fmt.Fprintf(os.Stderr, "[%s] %s\n", ev.Kind, ev.Job.ID)
			}
		}
	}

	// SIGINT/SIGTERM cancel the batch; the journal keeps what finished.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// With -trace, collect every span the batch produces (scheduler jobs,
	// SOAP client calls) and print the assembled trace tree afterwards.
	var collector *obs.Collector
	if *trace {
		collector = obs.NewCollector()
		ctx = obs.ContextWithCollector(ctx, collector)
	}

	fmt.Fprintf(os.Stderr, "dmexp: %s: %d jobs via %s executor\n", spec.Name, len(jobs), exec.Name())
	began := time.Now()
	results, err := sched.Run(ctx, jobs, data, exec, journal)
	if collector != nil {
		fmt.Fprint(os.Stderr, collector.TreeString())
	}
	// The failover evidence (breaker opens, endpoint ejections, retries)
	// lives in this process's metrics, not the servers'. Dump it before
	// deciding the exit code so an interrupted batch still leaves a trace.
	if *metricsOut != "" {
		if werr := writeMetrics(*metricsOut); werr != nil {
			fmt.Fprintf(os.Stderr, "dmexp: writing metrics: %v\n", werr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmexp: batch interrupted: %v (journal keeps %d records; rerun with -resume)\n",
			err, journalLen(journal))
		os.Exit(1)
	}
	fmt.Print(experiment.Report(results))
	fmt.Printf("\nbatch %q: %d jobs in %s\n", spec.Name, len(results), time.Since(began).Round(time.Millisecond))
	for _, res := range results {
		if res.Status == experiment.StatusFailed {
			os.Exit(1)
		}
	}
}

// writeMetrics dumps the process-wide metrics snapshot as JSON.
func writeMetrics(path string) error {
	data, err := json.MarshalIndent(obs.Default.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func journalLen(j *experiment.Journal) int {
	if j == nil {
		return 0
	}
	return j.Len()
}

func reportCmd(args []string) {
	fs := flag.NewFlagSet("dmexp report", flag.ExitOnError)
	journalPath := fs.String("journal", "", "journal path (JSON lines)")
	_ = fs.Parse(args)
	if *journalPath == "" {
		fatal("dmexp: -journal is required")
	}
	out, err := report(*journalPath)
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
}

// report renders the ranking tables of an existing journal. It never
// creates the file: a mistyped path is an error, not an empty report.
func report(path string) (string, error) {
	if _, err := os.Stat(path); err != nil {
		return "", fmt.Errorf("dmexp: no such journal: %w", err)
	}
	journal, err := experiment.OpenJournal(path)
	if err != nil {
		return "", err
	}
	defer journal.Close()
	results := experiment.ResultsFromRecords(journal.Records())
	if len(results) == 0 {
		return "", fmt.Errorf("dmexp: journal %s is empty", path)
	}
	return experiment.Report(results), nil
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, v)
	os.Exit(1)
}
