// Command dollymp-trace generates synthetic workload traces — as a
// JSON envelope, or as the framed stream format a multi-million-job
// replay decodes from disk one job at a time; dollymp-sim -trace runs
// either — and inspects or compacts existing traces of either format.
// -workload takes every name dollymp-sim does.
//
// Usage:
//
//	dollymp-trace -workload google -jobs 500 -gap 5 > jobs.json
//	dollymp-trace -workload google -jobs 25000000 -format stream -o replay.trace
//	dollymp-trace -inspect replay.trace
//	dollymp-trace -compact torn.trace -o intact.trace
//
// Stream generation emits jobs as they are drawn (O(1) memory), so a
// 25M-job trace streams to disk without ever materializing the list.
// -inspect sniffs the format; on a torn or corrupt file it reports the
// typed positional error (byte offset + frame index). -compact rewrites
// either format as a stream, keeping the intact prefix of a torn input;
// -o may name the input itself. A file written with -o appears under
// its name only once it is complete.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dollymp"
	"dollymp/internal/stats"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

// options carries the parsed flag set.
type options struct {
	workload string
	jobs     int
	gap      float64
	seed     uint64
	format   string // json (envelope) or stream (framed)
	out      string // "-" = stdout
	inspect  string
	compact  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "google", "workload: "+strings.Join(dollymp.WorkloadNames(), ", "))
	flag.IntVar(&o.jobs, "jobs", 100, "number of jobs")
	flag.Float64Var(&o.gap, "gap", 20, "mean inter-arrival gap in slots")
	flag.Uint64Var(&o.seed, "seed", 42, "random seed")
	flag.StringVar(&o.format, "format", "json", "output format: json (one envelope document) or stream (framed, O(1)-memory generation)")
	flag.StringVar(&o.out, "o", "-", "output path (- for stdout)")
	flag.StringVar(&o.inspect, "inspect", "", "inspect an existing trace file (either format) instead of generating")
	flag.StringVar(&o.compact, "compact", "", "rewrite an existing trace file as a stream to -o, keeping the intact prefix of a torn input")
	flag.Parse()

	if err := realMain(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dollymp-trace:", err)
		os.Exit(1)
	}
}

func realMain(o options, stdout io.Writer) error {
	switch {
	case o.inspect != "":
		return inspect(o.inspect, stdout)
	case o.compact != "":
		return compact(o.compact, o.out, stdout)
	}
	switch o.format {
	case "json", "stream":
	default:
		return fmt.Errorf("unknown -format %q (json or stream)", o.format)
	}

	// The google workload generates incrementally; with -format stream
	// it goes to disk one frame per job, never holding the list.
	if o.workload == "google" && o.format == "stream" {
		return withOutput(o.out, stdout, func(w io.Writer) error {
			sw, err := trace.NewStreamWriter(w)
			if err != nil {
				return err
			}
			g := trace.DefaultGoogleLike(o.jobs, o.gap, o.seed)
			if err := g.Emit(sw.Append); err != nil {
				return err
			}
			return sw.Flush()
		})
	}

	work, err := dollymp.NewWorkload(o.workload, o.jobs, o.gap, o.seed)
	if err != nil {
		return err
	}
	return withOutput(o.out, stdout, func(w io.Writer) error {
		if o.format == "stream" {
			sw, err := trace.NewStreamWriter(w)
			if err != nil {
				return err
			}
			for _, j := range work {
				if err := sw.Append(j); err != nil {
					return err
				}
			}
			return sw.Flush()
		}
		return trace.Write(w, work)
	})
}

// withOutput runs fn against the named file ("-" = the given stdout).
// fn writes to <path>.tmp, renamed over the target only after fn and
// Close succeeded: the target may be a file fn is still reading
// (-compact X -o X), and a failed or interrupted write leaves whatever
// was there before, never a shorter file that ends on a frame boundary
// and reads as a valid trace.
func withOutput(path string, stdout io.Writer, fn func(io.Writer) error) error {
	if path == "-" || path == "" {
		return fn(stdout)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// sniffStream reports whether the file starts with the stream magic.
func sniffStream(f *os.File) (bool, error) {
	var hdr [8]byte
	n, err := f.ReadAt(hdr[:], 0)
	if err != nil && err != io.EOF {
		return false, err
	}
	return trace.IsStream(hdr[:n]), nil
}

// inspect describes a trace of either format. A corrupt or torn file
// is reported with its byte offset (and frame index for streams) after
// the statistics of the intact prefix.
func inspect(path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	isStream, err := sniffStream(f)
	if err != nil {
		return err
	}
	var d describer
	if !isStream {
		work, err := trace.Read(f)
		if err != nil {
			return err // *trace.CorruptError on truncation, with offset
		}
		fmt.Fprintln(stdout, "format:         json envelope")
		for _, j := range work {
			d.add(j)
		}
		return d.write(stdout)
	}
	s, err := trace.NewStream(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "format:         stream v%d\n", trace.StreamVersion)
	for {
		j, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Report the intact prefix, then the positional error.
			if werr := d.write(stdout); werr != nil {
				return werr
			}
			return fmt.Errorf("intact prefix ends after %d jobs: %w", s.Decoded(), err)
		}
		d.add(j)
	}
	if err := d.write(stdout); err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "size:           %d bytes (%.1f per job)\n", s.Offset(), float64(s.Offset())/float64(max(d.jobs, 1)))
	return err
}

// compact rewrites a trace of either format as a stream. A torn or
// corrupt streamed input is truncated to its intact prefix (with a
// notice); a corrupt envelope cannot be partially decoded and fails.
func compact(in, out string, stdout io.Writer) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	isStream, err := sniffStream(f)
	if err != nil {
		return err
	}
	return withOutput(out, stdout, func(w io.Writer) error {
		sw, err := trace.NewStreamWriter(w)
		if err != nil {
			return err
		}
		if !isStream {
			work, err := trace.Read(f)
			if err != nil {
				return err
			}
			for _, j := range work {
				if err := sw.Append(j); err != nil {
					return err
				}
			}
			return sw.Flush()
		}
		s, err := trace.NewStream(f)
		if err != nil {
			return err
		}
		for {
			j, err := s.Next()
			if err == io.EOF {
				break
			}
			var ce *trace.CorruptError
			if errors.As(err, &ce) {
				fmt.Fprintf(os.Stderr, "dollymp-trace: dropping torn tail: %v (kept %d jobs)\n", ce, sw.Count())
				break
			}
			if err != nil {
				return err
			}
			if err := sw.Append(j); err != nil {
				return err
			}
		}
		return sw.Flush()
	})
}

// describer accumulates per-job statistics incrementally, so stream
// inspection is O(1) in trace size.
type describer struct {
	jobs, tasks, phases int
	taskStats, durStats stats.Summary
	apps                map[string]int
	lastArrival         int64
}

func (d *describer) add(j *workload.Job) {
	if d.apps == nil {
		d.apps = map[string]int{}
	}
	d.jobs++
	d.apps[j.App]++
	d.phases += len(j.Phases)
	d.tasks += j.TotalTasks()
	d.taskStats.Add(float64(j.TotalTasks()))
	for _, p := range j.Phases {
		d.durStats.Add(p.MeanDuration)
	}
	if j.Arrival > d.lastArrival {
		d.lastArrival = j.Arrival
	}
}

func (d *describer) write(w io.Writer) error {
	fmt.Fprintf(w, "jobs:           %d\n", d.jobs)
	fmt.Fprintf(w, "applications:   %v\n", d.apps)
	fmt.Fprintf(w, "phases:         %d\n", d.phases)
	fmt.Fprintf(w, "tasks:          %d (per job: %s)\n", d.tasks, d.taskStats.String())
	fmt.Fprintf(w, "phase duration: %s\n", d.durStats.String())
	_, err := fmt.Fprintf(w, "arrival span:   %d slots\n", d.lastArrival)
	return err
}
