// The `resim jobs` subcommand: client for the multi-tenant job service a
// coordinator exposes with `resimd -role coordinator -http ...`.
//
//	resim jobs submit -server http://host:8080 -token T -workload gzip -n 500000 -grid lsq=4,8,16
//	resim jobs status -server http://host:8080 -token T -id j0123456789abcdef
//	resim jobs results -server http://host:8080 -token T -id j0123456789abcdef
//	resim jobs watch  -server http://host:8080 -token T -id j0123456789abcdef
//	resim jobs trace  -server http://host:8080 -token T -id j0123456789abcdef
//	resim jobs cancel -server http://host:8080 -token T -id j0123456789abcdef
//	resim jobs list   -server http://host:8080 -token T
//
// submit queues the sweep and prints its job ID immediately; -wait
// additionally streams results until the job finishes. Submissions are
// durable server-side: a coordinator restart recovers them from its
// journal, so a printed job ID can always be picked up later with
// `resim jobs results`. watch follows the job's live telemetry stream,
// printing one table row per interval snapshot as the engines simulate
// (see docs/TELEMETRY.md). trace follows the job's lifecycle span log —
// when it was queued, dispatched to which worker, requeued, resumed past
// a checkpoint — one row per span (see docs/OBSERVABILITY.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"

	resim "repro"
	"repro/internal/configfile"
	"repro/internal/jobd"
	"repro/internal/stats"
	"repro/internal/sweepd"
)

func runJobs(args []string) {
	if len(args) == 0 {
		fatal(fmt.Errorf("resim jobs: need a subcommand: submit, status, results, watch, trace, cancel, list"))
	}
	sub, args := args[0], args[1:]
	fs := flag.NewFlagSet("resim jobs "+sub, flag.ExitOnError)
	var (
		server = fs.String("server", "http://localhost:8080", "job service base URL")
		token  = fs.String("token", "", "tenant bearer token")
		id     = fs.String("id", "", "job ID (status, results, cancel)")

		name     = fs.String("workload", "gzip", "submit: workload to sweep")
		n        = fs.Uint64("n", 500_000, "submit: instruction budget per point")
		priority = fs.Int("priority", 0, "submit: scheduling priority (higher dispatches first)")
		confPath = fs.String("config", "", "submit: JSON configuration file for the base design point")
		grid     = fs.String("grid", "", "submit: sweep one structure over values, e.g. lsq=4,8,16 (rb, lsq, ifq, width)")
		wait     = fs.Bool("wait", false, "submit: stream results until the job finishes")
	)
	fs.Parse(args) //nolint:errcheck

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := &jobd.Client{Server: strings.TrimRight(*server, "/"), Token: *token}

	switch sub {
	case "submit":
		jobSubmit(ctx, c, *name, *n, *priority, *confPath, *grid, *wait)
	case "status":
		st, err := c.Status(ctx, requireID(*id))
		if err != nil {
			fatal(err)
		}
		printStatus(st)
	case "results":
		if _, err := streamResults(ctx, c, requireID(*id)); err != nil {
			fatal(err)
		}
	case "watch":
		if err := watchTelemetry(ctx, c, requireID(*id)); err != nil {
			fatal(err)
		}
	case "trace":
		if err := traceJob(ctx, c, requireID(*id)); err != nil {
			fatal(err)
		}
	case "cancel":
		st, err := c.Cancel(ctx, requireID(*id))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s %s\n", st.ID, st.State)
	case "list":
		jobs, err := c.List(ctx)
		if err != nil {
			fatal(err)
		}
		for _, st := range jobs {
			fmt.Printf("%s  %-8s  %3d/%-3d  prio=%d  %s n=%d  submitted %s\n",
				st.ID, st.State, st.Completed, st.Total, st.Priority,
				st.Workload, st.Instructions, st.Submitted.Format("2006-01-02 15:04:05"))
		}
	default:
		fatal(fmt.Errorf("resim jobs: unknown subcommand %q (want submit, status, results, watch, trace, cancel, list)", sub))
	}
}

func requireID(id string) string {
	if id == "" {
		fatal(fmt.Errorf("resim jobs: -id is required"))
	}
	return id
}

func jobSubmit(ctx context.Context, c *jobd.Client, workload string, n uint64, priority int, confPath, grid string, wait bool) {
	base := resim.DefaultConfig()
	if confPath != "" {
		loaded, err := configfile.Load(confPath)
		if err != nil {
			fatal(err)
		}
		base = loaded
	}
	points, err := gridPoints(base, grid)
	if err != nil {
		fatal(err)
	}
	st, err := c.Submit(ctx, jobd.SubmitRequest{
		Workload: workload, Instructions: n, Priority: priority, Points: points,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s queued (%d points)\n", st.ID, st.Total)
	if !wait {
		return
	}
	state, err := streamResults(ctx, c, st.ID)
	if err != nil {
		fatal(err)
	}
	if state != jobd.StateDone {
		fatal(fmt.Errorf("resim jobs: job %s ended %s", st.ID, state))
	}
}

// gridPoints expands "-grid param=v1,v2,..." over the base configuration
// into named wire points; an empty grid submits the base point alone.
func gridPoints(base resim.Config, grid string) ([]sweepd.WirePoint, error) {
	if grid == "" {
		spec, err := sweepd.SpecOf(base)
		if err != nil {
			return nil, err
		}
		return []sweepd.WirePoint{{Name: "base", Config: spec}}, nil
	}
	param, list, ok := strings.Cut(grid, "=")
	if !ok {
		return nil, fmt.Errorf("resim jobs: -grid wants param=v1,v2,... (got %q)", grid)
	}
	var apply func(*resim.Config, int)
	switch param {
	case "rb":
		apply = func(c *resim.Config, v int) { c.RBSize = v }
	case "lsq":
		apply = func(c *resim.Config, v int) { c.LSQSize = v }
	case "ifq":
		apply = func(c *resim.Config, v int) { c.IFQSize = v }
	case "width":
		apply = func(c *resim.Config, v int) { c.Width = v }
	default:
		return nil, fmt.Errorf("resim jobs: -grid parameter %q not supported (want rb, lsq, ifq or width)", param)
	}
	var points []sweepd.WirePoint
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("resim jobs: -grid value %q: %w", s, err)
		}
		cfg := base
		apply(&cfg, v)
		spec, err := sweepd.SpecOf(cfg)
		if err != nil {
			return nil, err
		}
		points = append(points, sweepd.WirePoint{Name: param + "=" + strconv.Itoa(v), Config: spec})
	}
	return points, nil
}

func streamResults(ctx context.Context, c *jobd.Client, id string) (jobd.State, error) {
	state, err := c.Results(ctx, id, func(wr *sweepd.WireResult) error {
		switch {
		case wr.Err != "":
			fmt.Printf("%-24s ERROR %s\n", wr.Name, wr.Err)
		case wr.Res != nil:
			fmt.Printf("%-24s %12d cycles %12d committed  IPC %.4f\n",
				wr.Name, wr.Res.Cycles, wr.Res.Committed, stats.Ratio(wr.Res.Committed, wr.Res.Cycles))
		}
		return nil
	})
	if err != nil {
		return state, err
	}
	fmt.Printf("job %s: %s\n", id, state)
	return state, nil
}

// watchTelemetry follows the job's live interval-snapshot stream, printing
// a table row per window as the engines simulate: which point, the cycle
// window, its IPC and miss rates, and the mean reorder-buffer occupancy. A
// watch attached mid-job first replays the service's buffered history, then
// follows live until the job finishes.
func watchTelemetry(ctx context.Context, c *jobd.Client, id string) error {
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "POINT\tWINDOW\tCYCLES\tIPC\tBR-MISS\tI$-MISS\tD$-MISS\tRB-OCC")
	tw.Flush()
	rows := 0
	state, err := c.Telemetry(ctx, id, func(s resim.IntervalSnapshot) error {
		mark := ""
		if s.Final {
			mark = " *"
		}
		fmt.Fprintf(tw, "%d\t[%d,%d)%s\t%d\t%.4f\t%.4f\t%.4f\t%.4f\t%.1f\n",
			s.Core, s.StartCycle, s.EndCycle, mark, s.Cycles,
			s.IPC, s.MispredictRate, s.ICacheMissRate, s.DCacheMissRate, s.RB.Mean())
		rows++
		// Flush per line: watch is a live view, not a report.
		return tw.Flush()
	})
	if err != nil {
		return err
	}
	fmt.Printf("job %s: %s (%d intervals)\n", id, state, rows)
	if state != jobd.StateDone && state != jobd.StateCanceled {
		return fmt.Errorf("resim jobs: job %s ended %s", id, state)
	}
	return nil
}

// traceJob follows the job's lifecycle span stream, printing a table row
// per span: when it happened relative to submission, what it was, and its
// point/group/worker attribution. A trace attached mid-job first replays
// the service's buffered span log, then follows live until the job
// finishes.
func traceJob(ctx context.Context, c *jobd.Client, id string) error {
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "SEQ\t+MS\tEVENT\tPOINT\tGROUP\tWORKER\tDETAIL")
	tw.Flush()
	rows := 0
	state, err := c.Trace(ctx, id, func(s jobd.TraceSpan) error {
		point := ""
		if s.Point >= 0 {
			point = strconv.Itoa(s.Point)
		}
		detail := s.Detail
		if s.Cycle > 0 {
			detail = strings.TrimSpace(fmt.Sprintf("cycle=%d %s", s.Cycle, detail))
		}
		if s.Points > 0 {
			detail = strings.TrimSpace(fmt.Sprintf("points=%d %s", s.Points, detail))
		}
		fmt.Fprintf(tw, "%d\t%.1f\t%s\t%s\t%s\t%s\t%s\n",
			s.Seq, s.ElapsedMS, s.Event, point, s.Group, s.Worker, detail)
		rows++
		// Flush per line: trace is a live view, not a report.
		return tw.Flush()
	})
	if err != nil {
		return err
	}
	fmt.Printf("job %s: %s (%d spans)\n", id, state, rows)
	if state != jobd.StateDone && state != jobd.StateCanceled {
		return fmt.Errorf("resim jobs: job %s ended %s", id, state)
	}
	return nil
}

func printStatus(st jobd.JobStatus) {
	fmt.Printf("id:        %s\nstate:     %s\nworkload:  %s (n=%d)\npriority:  %d\nprogress:  %d/%d points\nsubmitted: %s\n",
		st.ID, st.State, st.Workload, st.Instructions, st.Priority,
		st.Completed, st.Total, st.Submitted.Format("2006-01-02 15:04:05"))
	if st.Err != "" {
		fmt.Printf("error:     %s\n", st.Err)
	}
	for _, pt := range st.Points {
		mark := " "
		if pt.Done {
			mark = "✓"
		}
		fmt.Printf("  [%s] %d %s", mark, pt.Index, pt.Name)
		if pt.Err != "" {
			fmt.Printf("  ERROR %s", pt.Err)
		}
		fmt.Println()
	}
}
