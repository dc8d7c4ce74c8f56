package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"viyojit/internal/sim"
	"viyojit/internal/ycsb"
)

// Every experiment entry point must be a pure function of its seed: the
// whole evaluation pipeline replays bit-for-bit, which is what makes a
// reported figure a reproducible artifact. TestFigureDigests computes
// each entry point once, hashes its result and compares the hash with
// testdata/digests.golden, so a result that moves between commits fails
// here, not only one that moves between two runs in one process.
// A moved digest is re-recorded on purpose, in its own commit, with
//
//	go test ./internal/experiments -run TestFigureDigests -update
//
// RunOverloadCurve is not pinned: its client goroutines are scheduled by
// the host, so its points do not repeat bit for bit (ROADMAP item 13).
var update = flag.Bool("update", false, "rewrite testdata/digests.golden")

const digestsGolden = "testdata/digests.golden"

// smallOpts keeps the pinned runs cheap: one workload, one fraction, few
// operations.
func smallOpts() SweepOptions {
	return SweepOptions{
		Workloads:      []ycsb.Workload{ycsb.WorkloadA},
		Fractions:      []float64{0.23},
		OperationCount: 3_000,
		Seed:           7,
	}
}

// pinned memoises an entry point so that it runs at most once per test
// binary, whichever test asks for it first.
func pinned[T any](run func() (T, error)) func() (any, error) {
	return sync.OnceValues(func() (any, error) { return run() })
}

// rendered memoises a printer's output bytes.
func rendered(print func(w io.Writer) error) func() (any, error) {
	return pinned(func() ([]byte, error) {
		var buf bytes.Buffer
		err := print(&buf)
		return buf.Bytes(), err
	})
}

var (
	smallSweep    = pinned(func() (*Sweep, error) { return RunSweep(smallOpts()) })
	batteryRetune = pinned(func() (RetuneReport, error) { return RunBatteryRetune(5) })

	fig1Render   = rendered(FprintFig1)
	sizingRender = rendered(func(w io.Writer) error { FprintBatterySizing(w); return nil })
	fig5Render   = rendered(func(w io.Writer) error { FprintFig5(w); return nil })
	availRender  = rendered(FprintAvailability)
	retuneRender = rendered(func(w io.Writer) error {
		r, err := batteryRetune()
		if err == nil {
			FprintBatteryRetune(w, r.(RetuneReport))
		}
		return err
	})
)

// sweepRender renders one of the sweep's figures.
func sweepRender(print func(io.Writer, *Sweep)) func() (any, error) {
	return rendered(func(w io.Writer) error {
		s, err := smallSweep()
		if err == nil {
			print(w, s.(*Sweep))
		}
		return err
	})
}

// digestEntry is one pinned entry point; its digest's key in the golden
// is group/name.
type digestEntry struct {
	name string
	run  func() (any, error)
}

var digestGroups = []struct {
	name    string
	entries []digestEntry
}{
	{"runs", []digestEntry{
		{"RunSweep", smallSweep},
		{"RunBaseline", pinned(func() (Point, error) {
			return RunBaseline(YCSBConfig{Workload: ycsb.WorkloadA, Seed: 11, OperationCount: 3_000})
		})},
		{"RunViyojit", pinned(func() (Point, error) {
			cfg := YCSBConfig{Workload: ycsb.WorkloadA, Seed: 9, OperationCount: 5_000}
			return RunViyojit(cfg, BudgetPages(cfg, 0.23))
		})},
	}},
	{"ablations", []digestEntry{
		{"TLB", pinned(func() ([]TLBAblationRow, error) { return RunTLBAblation(smallOpts()) })},
		{"policy", pinned(func() ([]PolicyRow, error) { return RunPolicyAblation(smallOpts(), 0.23) })},
		{"epoch", pinned(func() ([]ParamRow, error) {
			return RunEpochAblation(smallOpts(), 0.23, []sim.Duration{sim.Millisecond})
		})},
		{"queue-depth", pinned(func() ([]ParamRow, error) { return RunQueueDepthAblation(smallOpts(), 0.23, []int{8}) })},
		{"EWMA", pinned(func() ([]ParamRow, error) { return RunEWMAAblation(smallOpts(), 0.23, []float64{0.5}) })},
		{"HW-assist", pinned(func() ([]HWAssistRow, error) { return RunHWAssistAblation(smallOpts()) })},
		{"reduction", pinned(func() ([]ReductionRow, error) { return RunSSDReductionAblation(smallOpts(), 0.23) })},
		{"fig10", pinned(func() ([]Fig10Row, error) { return RunFig10(smallOpts()) })},
	}},
	{"scenarios", []digestEntry{
		{"battery-retune", batteryRetune},
		{"granularity", pinned(func() (GranularityResult, error) { return RunGranularityComparison(5, 64, 3_000) })},
		{"tenancy", pinned(func() (TenancyResult, error) { return RunTenancyExperiment(5, 40) })},
		{"replay", pinned(func() (ReplayReport, error) {
			v, err := replayVolume()
			if err != nil {
				return ReplayReport{}, err
			}
			return runReplay(v, replayViyojit, 0)
		})},
	}},
	{"printers", []digestEntry{
		{"fig1", fig1Render},
		{"battery-sizing", sizingRender},
		{"fig5", fig5Render},
		{"fig7", sweepRender(FprintFig7)},
		{"fig8", sweepRender(FprintFig8)},
		{"fig9", sweepRender(FprintFig9)},
		{"availability", availRender},
		{"warmup", rendered(func(w io.Writer) error { return FprintWarmup(w, 3) })},
		{"retune", retuneRender},
	}},
}

func TestFigureDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The compiler may fuse a multiply and an add into one FMA
		// instruction on other architectures, which rounds differently.
		t.Skipf("the golden is recorded on amd64; %s may round floats differently", runtime.GOARCH)
	}
	want := readDigests(t)
	known := map[string]bool{}
	var got []string // "group/name digest", in table order
	for _, g := range digestGroups {
		for _, e := range g.entries {
			known[g.name+"/"+e.name] = true
		}
		t.Run(g.name, func(t *testing.T) {
			for _, e := range g.entries {
				key := g.name + "/" + e.name
				t.Run(e.name, func(t *testing.T) {
					v, err := e.run()
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					d := digest(v)
					got = append(got, key+" "+d)
					switch {
					case *update:
					case want[key] == "":
						t.Errorf("%s: digest %s is not in %s (run with -update to record it)", key, d, digestsGolden)
					case want[key] != d:
						t.Errorf("%s: digest %s, %s has %s: the result moved", key, d, digestsGolden, want[key])
					}
				})
			}
		})
	}
	for key := range want {
		if !known[key] {
			t.Errorf("%s lists %s, which no entry point computes", digestsGolden, key)
		}
	}
	if *update && !t.Failed() {
		if len(got) != len(known) {
			t.Fatalf("-update needs every entry point; %d of %d ran", len(got), len(known))
		}
		text := "# Figure digests: the first 16 bytes of SHA-256 over each entry point's\n" +
			"# canonical result (digests_test.go). Re-record with\n" +
			"#   go test ./internal/experiments -run TestFigureDigests -update\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(digestsGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d digests)", digestsGolden, len(got))
	}
}

// TestStaticFigurePrinters checks each static figure's heading on the
// render TestFigureDigests pins.
func TestStaticFigurePrinters(t *testing.T) {
	for _, c := range []struct {
		render func() (any, error)
		want   string
	}{
		{fig1Render, "Figure 1"},
		{sizingRender, "Battery sizing"},
		{fig5Render, "Figure 5"},
		{availRender, "availability"},
		{retuneRender, "retuning"},
	} {
		out, err := c.render()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(out.([]byte), []byte(c.want)) {
			t.Errorf("static output missing %q", c.want)
		}
	}
}

// readDigests parses the golden into key → digest. With -update a
// missing file is an empty golden.
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	want := map[string]string{}
	f, err := os.Open(digestsGolden)
	if err != nil {
		if *update && os.IsNotExist(err) {
			return want
		}
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, d, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestsGolden, line)
		}
		want[key] = d
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// digest hashes v's canonical encoding.
func digest(v any) string {
	var c canon
	c.value(reflect.ValueOf(v))
	sum := sha256.Sum256(c.b)
	return hex.EncodeToString(sum[:16])
}

// canon is a canonical encoding of a value, at least as strict as
// reflect.DeepEqual: it follows pointers, writes every struct field
// (unexported ones too), writes floats as their IEEE-754 bits, marks nil
// apart from empty, and writes map entries in the order of their keys'
// encodings. A pointer met a second time is written as its first visit's
// ordinal, so shared and cyclic structures encode finitely.
type canon struct {
	b    []byte
	seen map[canonPtr]uint64
}

type canonPtr struct {
	addr uintptr
	typ  reflect.Type
}

func (c *canon) u64(x uint64) { c.b = binary.LittleEndian.AppendUint64(c.b, x) }

func (c *canon) str(s string) {
	c.u64(uint64(len(s)))
	c.b = append(c.b, s...)
}

func (c *canon) value(v reflect.Value) {
	if !v.IsValid() {
		c.b = append(c.b, 0)
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			c.b = append(c.b, 1)
		} else {
			c.b = append(c.b, 0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		c.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		c.u64(math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		c.u64(math.Float64bits(real(v.Complex())))
		c.u64(math.Float64bits(imag(v.Complex())))
	case reflect.String:
		c.str(v.String())
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			c.value(v.Index(i))
		}
	case reflect.Slice:
		if v.IsNil() {
			c.b = append(c.b, 0)
			return
		}
		c.b = append(c.b, 1)
		c.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			c.value(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			c.value(v.Field(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			c.b = append(c.b, 0)
			return
		}
		if c.seen == nil {
			c.seen = map[canonPtr]uint64{}
		}
		p := canonPtr{v.Pointer(), v.Type()}
		if id, ok := c.seen[p]; ok {
			c.b = append(c.b, 2)
			c.u64(id)
			return
		}
		c.seen[p] = uint64(len(c.seen))
		c.b = append(c.b, 1)
		c.value(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			c.b = append(c.b, 0)
			return
		}
		c.b = append(c.b, 1)
		c.str(v.Elem().Type().String())
		c.value(v.Elem())
	case reflect.Map:
		if v.IsNil() {
			c.b = append(c.b, 0)
			return
		}
		c.b = append(c.b, 1)
		c.u64(uint64(v.Len()))
		type entry struct {
			key []byte
			val reflect.Value
		}
		var entries []entry
		for it := v.MapRange(); it.Next(); {
			var k canon
			k.value(it.Key())
			entries = append(entries, entry{k.b, it.Value()})
		}
		slices.SortFunc(entries, func(a, b entry) int { return bytes.Compare(a.key, b.key) })
		for _, e := range entries {
			c.b = append(c.b, e.key...)
			c.value(e.val)
		}
	default:
		panic(fmt.Sprintf("digest: cannot encode a %s", v.Type()))
	}
}
