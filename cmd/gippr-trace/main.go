// Command gippr-trace generates, filters and inspects memory-reference
// trace files in the repository's binary trace format.
//
// Trace files whose names end in ".gz" are transparently gzip-compressed.
//
// Usage:
//
//	gippr-trace gen -workload mcf_like [-phase 0] [-records N] [-seed S] -o trace.bin
//	gippr-trace llc -i trace.bin -o llc.bin       # filter through L1/L2
//	gippr-trace info -i trace.bin                 # summary statistics
//	gippr-trace simpoints -i trace.bin [-k 6]     # SimPoint phase selection
//
// The record-streaming subcommands (gen, llc, info) accept -debug-addr to
// serve live records/sec gauges as expvar at /debug/vars with the pprof
// suite.
//
// SIGINT/SIGTERM interrupt the record loops gracefully: a partially written
// output file is removed rather than left torn, and the exit code is 3.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"gippr/internal/cache"
	"gippr/internal/policy"
	"gippr/internal/runctx"
	"gippr/internal/simpoint"
	"gippr/internal/trace"
	"gippr/internal/workload"
)

// prog counts processed records across whichever subcommand runs; each
// subcommand's -debug-addr flag serves it as expvar gauges.
var prog = runctx.NewProgress("gippr-trace")

// serveDebug starts the debug server for a subcommand's -debug-addr flag.
func serveDebug(addr string) {
	if _, err := runctx.MaybeServeDebug(addr, prog); err != nil {
		fatal(err)
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	ctx, stop := runctx.Setup(0)
	defer stop()
	switch os.Args[1] {
	case "gen":
		cmdGen(ctx, os.Args[2:])
	case "llc":
		cmdLLC(ctx, os.Args[2:])
	case "info":
		cmdInfo(ctx, os.Args[2:])
	case "simpoints":
		cmdSimpoints(os.Args[2:])
	default:
		usage()
	}
}

// cancelCheckEvery is how many records the streaming loops process between
// context polls: coarse enough to stay off the hot path, fine enough that an
// interrupt lands within a fraction of a second.
const cancelCheckEvery = 1 << 16

// cancelled exits with the cancellation code, removing the named partial
// output file (if any) so an interrupted run never leaves a torn trace.
func cancelled(ctx context.Context, partial string) {
	if partial != "" {
		os.Remove(partial)
		fmt.Fprintf(os.Stderr, "gippr-trace: removed partial output %s\n", partial)
	}
	fmt.Fprintln(os.Stderr, runctx.Explain("gippr-trace", ctx.Err()))
	os.Exit(runctx.ExitCancelled)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: gippr-trace {gen|llc|info|simpoints} [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gippr-trace:", err)
	os.Exit(1)
}

func cmdGen(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("workload", "mcf_like", "workload name")
	phase := fs.Int("phase", 0, "phase index")
	records := fs.Int("records", 600_000, "number of references")
	seed := fs.Uint64("seed", 1, "generator seed")
	out := fs.String("o", "", "output trace file")
	debugAddr := fs.String("debug-addr", "", "serve expvar progress gauges and pprof on this address")
	fs.Parse(args)
	if *out == "" {
		fatal(fmt.Errorf("gen: -o is required"))
	}
	serveDebug(*debugAddr)
	prog.SetPhase("gen")
	prog.SetTotal(uint64(*records))
	w, err := workload.ByName(*name)
	if err != nil {
		fatal(err)
	}
	if *phase < 0 || *phase >= len(w.Phases) {
		fatal(fmt.Errorf("gen: %s has %d phases", w.Name, len(w.Phases)))
	}
	tw, closeFn, err := trace.CreateFile(*out)
	if err != nil {
		fatal(err)
	}
	src := &workload.Limit{Src: w.Phases[*phase].Source(*seed), N: uint64(*records)}
	for i := 0; ; i++ {
		if i%cancelCheckEvery == 0 {
			if ctx.Err() != nil {
				closeFn()
				cancelled(ctx, *out)
			}
			prog.Add(uint64(i) - prog.Done()) // batch the gauge off the hot loop
		}
		r, ok := src.Next()
		if !ok {
			break
		}
		if err := tw.Write(r); err != nil {
			closeFn()
			fatal(err)
		}
	}
	n := tw.Count()
	if err := closeFn(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d records to %s\n", n, *out)
}

func cmdLLC(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("llc", flag.ExitOnError)
	in := fs.String("i", "", "input trace file")
	out := fs.String("o", "", "output LLC-filtered trace file")
	debugAddr := fs.String("debug-addr", "", "serve expvar progress gauges and pprof on this address")
	fs.Parse(args)
	if *in == "" || *out == "" {
		fatal(fmt.Errorf("llc: -i and -o are required"))
	}
	serveDebug(*debugAddr)
	prog.SetPhase("llc")
	tr, closeIn, err := trace.OpenFile(*in)
	if err != nil {
		fatal(err)
	}
	defer closeIn()
	lru := func(cfg cache.Config) *cache.Cache {
		return cache.New(cfg, policy.NewTrueLRU(cfg.Sets(), cfg.Ways))
	}
	// The capture consumes the source record by record, so the context
	// poll rides inside the source instead of the (uncancellable) capture
	// call; on interrupt the capture sees end-of-trace and we exit before
	// writing any output.
	src := &ctxSource{ctx: ctx, src: tr}
	llc := cache.CaptureLLC(src, lru(cache.L1Config), lru(cache.L2Config), 0)
	if src.stopped {
		cancelled(ctx, "")
	}
	if err := trace.WriteFile(*out, llc); err != nil {
		fatal(err)
	}
	fmt.Printf("read %d references; %d reached the LLC (%.1f%%)\n",
		src.n, len(llc), 100*float64(len(llc))/float64(src.n))
}

// ctxSource wraps a trace source with a periodic context poll; on
// cancellation it reports end-of-trace and records that it did so. n counts
// the records it has passed on.
type ctxSource struct {
	ctx     context.Context
	src     trace.Source
	n       int
	stopped bool
}

func (s *ctxSource) Next() (trace.Record, bool) {
	if s.n%cancelCheckEvery == 0 {
		if s.ctx.Err() != nil {
			s.stopped = true
			return trace.Record{}, false
		}
		prog.Add(uint64(s.n) - prog.Done()) // batch the gauge off the hot loop
	}
	r, ok := s.src.Next()
	if ok {
		s.n++
	}
	return r, ok
}

func cmdInfo(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "", "input trace file")
	debugAddr := fs.String("debug-addr", "", "serve expvar progress gauges and pprof on this address")
	fs.Parse(args)
	if *in == "" {
		fatal(fmt.Errorf("info: -i is required"))
	}
	serveDebug(*debugAddr)
	prog.SetPhase("info")
	tr, closeIn, err := trace.OpenFile(*in)
	if err != nil {
		fatal(err)
	}
	defer closeIn()
	var records, writes, instrs uint64
	blocks := map[uint64]struct{}{}
	pcs := map[uint64]struct{}{}
	for {
		if records%cancelCheckEvery == 0 {
			if ctx.Err() != nil {
				cancelled(ctx, "")
			}
			prog.Add(records - prog.Done()) // batch the gauge off the hot loop
		}
		r, ok := tr.Next()
		if !ok {
			break
		}
		records++
		instrs += uint64(r.Gap)
		if r.Write {
			writes++
		}
		blocks[r.Addr>>6] = struct{}{}
		pcs[r.PC] = struct{}{}
	}
	fmt.Printf("records:        %d\n", records)
	fmt.Printf("instructions:   %d\n", instrs)
	fmt.Printf("writes:         %d (%.1f%%)\n", writes, pct(writes, records))
	fmt.Printf("distinct blocks: %d (%.1f MB footprint)\n", len(blocks), float64(len(blocks))*64/1024/1024)
	fmt.Printf("distinct PCs:   %d\n", len(pcs))
	if records > 0 {
		fmt.Printf("refs per kilo-instruction: %.1f\n", 1000*float64(records)/float64(instrs))
	}
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func cmdSimpoints(args []string) {
	fs := flag.NewFlagSet("simpoints", flag.ExitOnError)
	in := fs.String("i", "", "input trace file")
	k := fs.Int("k", 6, "maximum number of phases (the paper uses up to 6 simpoints)")
	intervalLen := fs.Int("interval", 100_000, "interval length in references")
	seed := fs.Uint64("seed", 1, "clustering seed")
	fs.Parse(args)
	if *in == "" {
		fatal(fmt.Errorf("simpoints: -i is required"))
	}
	recs, err := trace.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	intervals := simpoint.Extract(recs, *intervalLen)
	points := simpoint.Pick(intervals, *k, *seed)
	fmt.Printf("%d records, %d intervals of %d, %d phases:\n",
		len(recs), len(intervals), *intervalLen, len(points))
	for _, p := range points {
		fmt.Printf("  %s -> records [%d, %d)\n", p,
			p.Interval.Index**intervalLen, p.Interval.Index**intervalLen+p.Interval.Records)
	}
}
