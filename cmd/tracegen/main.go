// Command tracegen generates a synthetic data-center volume trace and
// writes it in the repository's binary trace format, for use with
// cmd/provision -file and custom analyses. Operators with real traces
// convert them to the same format (see internal/trace/io.go for the
// layout) and get the full §3 analysis pipeline on their own data.
//
// Usage:
//
//	tracegen -out vol.trace [-size BYTES] [-hours H] [-write-frac F]
//	         [-skew zipf|unique|hot] [-theta T] [-hot-frac F] [-seed S]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"viyojit/internal/sim"
	"viyojit/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in; it returns the
// process exit status.
func run(args []string, out, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("out", "", "output file (required)")
	size := fs.Int64("size", 64<<20, "volume size in bytes")
	hours := fs.Float64("hours", 4, "trace duration in hours")
	writeFrac := fs.Float64("write-frac", 0.12, "worst-hour written fraction of the volume")
	skew := fs.String("skew", "zipf", "write skew: zipf, unique, or hot")
	theta := fs.Float64("theta", 0.99, "zipf exponent (skew=zipf)")
	hotFrac := fs.Float64("hot-frac", 0.1, "hot-set fraction (skew=hot)")
	touched := fs.Float64("touched", 0.6, "fraction of pages touched over the trace")
	seed := fs.Uint64("seed", 1, "generation seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec := trace.VolumeSpec{
		Name:                   *file,
		SizeBytes:              *size,
		WorstHourWriteFraction: *writeFrac,
		Theta:                  *theta,
		HotFraction:            *hotFrac,
		TouchedFraction:        *touched,
	}
	if err := generate(out, spec, *skew, *hours, *seed); err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	return 0
}

// generate builds the volume spec names and writes it to spec.Name.
func generate(out io.Writer, spec trace.VolumeSpec, skew string, hours float64, seed uint64) error {
	if spec.Name == "" {
		return fmt.Errorf("-out is required")
	}
	switch skew {
	case "zipf":
		spec.Skew = trace.SkewZipf
	case "unique":
		spec.Skew = trace.SkewUnique
	case "hot":
		spec.Skew = trace.SkewHot
	default:
		return fmt.Errorf("unknown skew %q", skew)
	}
	v, err := trace.Generate(spec, sim.Duration(hours*float64(trace.Hour)), seed)
	if err != nil {
		return err
	}
	f, err := os.Create(spec.Name)
	if err != nil {
		return err
	}
	n, err := v.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: %d events, %d bytes\n", spec.Name, len(v.Events), n)
	fmt.Fprintf(out, "worst-hour written fraction: %.1f%%\n", v.WorstIntervalWrittenFraction(trace.Hour)*100)
	return nil
}
