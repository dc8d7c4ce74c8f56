// Command blackbox is the flight-recorder dump tool: it walks a raw
// black-box ring image into the post-failure forensic report — the
// crash-instant dirty/budget/ladder snapshot and the event timeline.
//
// Two modes:
//
//	-in FILE: walk a saved ring image (the bytes an operator pulled off
//	  the battery-backed region, e.g. via System.BlackBoxImage) and
//	  print the forensic report. The walk is torn-tail tolerant: a
//	  truncated or corrupted image yields the longest valid record
//	  prefix, never a panic or an invented record.
//
//	default (no -in): demo — run a write workload with the recorder
//	  armed, pull the plug mid-flight, recover, and print the forensic
//	  report the reboot adopted from the crash ring. -out FILE saves
//	  the crash-instant ring image so the -in path has something real
//	  to chew on.
//
// Usage:
//
//	blackbox [-in FILE] [-out FILE] [-n N] [-size BYTES] [-seed S]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"viyojit"
	"viyojit/internal/blackbox"
	"viyojit/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in; it returns the
// process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("blackbox", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "walk this raw ring image instead of running the demo")
	out := fs.String("out", "", "demo mode: save the crash-instant ring image to this file")
	n := fs.Int("n", 30, "timeline length to print (0 = all)")
	size := fs.Int64("size", 8<<20, "demo mode: NV-DRAM size in bytes")
	seed := fs.Uint64("seed", 1, "demo mode: workload seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *n < 0 {
		fmt.Fprintf(stderr, "blackbox: -n %d is negative\n", *n)
		return 1
	}
	var err error
	if *in != "" {
		err = dumpImage(stdout, *in, *n)
	} else {
		err = demo(stdout, *size, *seed, *out, *n)
	}
	if err != nil {
		fmt.Fprintln(stderr, "blackbox:", err)
		return 1
	}
	return 0
}

// dumpImage walks a saved ring image and prints its forensic report.
func dumpImage(w io.Writer, path string, n int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	walk := blackbox.Walk(data)
	fmt.Fprintf(w, "%s: %d bytes, %d slots\n", path, len(data), uint64(len(data))/blackbox.SlotBytes)
	if err := blackbox.BuildReport(walk).WriteText(w, n); err != nil {
		return err
	}
	if len(walk.Records) == 0 {
		fmt.Fprintln(w, "no intact records: empty ring, or an image too damaged to adopt anything")
	}
	return nil
}

// demo runs a workload into a power failure and prints the forensic
// report the recovered system adopts from the crash ring.
func demo(w io.Writer, size int64, seed uint64, out string, n int) error {
	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: size, BlackBox: true})
	if err != nil {
		return err
	}
	m, err := sys.Map("demo-heap", size/2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "recorder armed: %d-record ring, budget %d pages\n",
		sys.BlackBox().Slots(), sys.DirtyBudget())

	rng := sim.NewRNG(seed)
	pages := size / 2 / 4096
	for i := 0; i < int(2*pages); i++ {
		p := rng.Int63n(pages)
		if err := m.WriteAt([]byte{byte(p)}, p*4096); err != nil {
			return err
		}
		sys.Pump()
	}
	sys.BlackBox().Mark(1, int64(sys.DirtyCount()), 0)

	res := sys.SimulatePowerFailure()
	fmt.Fprintf(w, "power failed at t=%v: flushed %d pages, survived=%v\n",
		sim.Duration(sys.Now()), res.PagesFlushed, res.Survived)

	if out != "" {
		img, err := sys.BlackBoxImage()
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, img, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "crash ring image saved to %s (%d bytes) — replay with -in %s\n", out, len(img), out)
	}

	recovered, _, err := sys.Recover()
	if err != nil {
		return err
	}
	rep := recovered.Forensics()
	if rep == nil {
		return fmt.Errorf("recovery adopted no forensic report")
	}
	fmt.Fprintln(w, "\nforensic report adopted by the reboot:")
	return rep.WriteText(w, n)
}
