package cliflags

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestRegisterGeometryDefaultsAndBuild(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	g := RegisterGeometry(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !g.IsMesh() || g.Width != 8 || g.Height != 8 {
		t.Fatalf("defaults: %+v", g)
	}
	tp, err := g.build()
	if err != nil {
		t.Fatal(err)
	}
	if tp.Name() != "mesh" || tp.Endpoints() != g.Endpoints() {
		t.Fatalf("built %s with %d endpoints, want mesh with %d",
			tp.Name(), tp.Endpoints(), g.Endpoints())
	}
}

func TestGeometryFabrics(t *testing.T) {
	for _, tc := range []struct {
		args      []string
		name      string
		endpoints int
	}{
		{[]string{"-topo", "benes", "-width", "8", "-height", "1"}, "benes", 8},
		{[]string{"-topo", "shufflecast", "-width", "4", "-height", "4", "-arity", "2"}, "shufflecast", 16},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		g := RegisterGeometry(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if g.IsMesh() {
			t.Fatalf("%v parsed as mesh", tc.args)
		}
		if err := g.RequireMesh("trace replay"); err == nil {
			t.Fatalf("%v: RequireMesh passed", tc.args)
		}
		tp, err := g.build()
		if err != nil {
			t.Fatal(err)
		}
		if tp.Name() != tc.name || tp.Endpoints() != tc.endpoints {
			t.Fatalf("%v built %s/%d, want %s/%d",
				tc.args, tp.Name(), tp.Endpoints(), tc.name, tc.endpoints)
		}
		net, err := g.FabricNetwork(2, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if net.Nodes() != tc.endpoints {
			t.Fatalf("%v fabsim nodes %d, want %d", tc.args, net.Nodes(), tc.endpoints)
		}
		// A config fabsim rejects is an error, not fabsim.New's panic.
		if _, err := g.FabricNetwork(0, -5, 1); err == nil || err.Error() != "fabsim: loss timeout -5" {
			t.Errorf("%v: loss timeout -5 gave error %v", tc.args, err)
		}
		if _, err := g.FabricNetwork(-3, 0, 1); err == nil || err.Error() != "fabsim: router delay -3" {
			t.Errorf("%v: router delay -3 gave error %v", tc.args, err)
		}
	}
}

func TestGeometryRejectsUnknownFabric(t *testing.T) {
	g := &Geometry{Topo: "torus", Width: 8, Height: 8, Arity: 2}
	if _, err := g.build(); err == nil {
		t.Fatal("unknown fabric built")
	}
}

func TestParseFaultArgSpecAndJSON(t *testing.T) {
	if _, err := ParseFaultArg("dead-link@3:E"); err != nil {
		t.Fatalf("spec: %v", err)
	}
	if _, err := ParseFaultArg(`{"faults":[]}`); err != nil {
		t.Fatalf("json: %v", err)
	}
	if _, err := ParseFaultArg("@/nonexistent/plan.json"); err == nil {
		t.Fatal("missing @file accepted")
	}
}

func TestRates(t *testing.T) {
	if err := checkRates("rates", []float64{0, 0.002, 0.5, 1}); err != nil {
		t.Fatalf("valid rates rejected: %v", err)
	}
	for _, bad := range []float64{math.NaN(), -0.1, 1.0001, 2, math.Inf(1)} {
		err := checkRates("rate", []float64{0.1, bad})
		if err == nil {
			t.Errorf("rate %v accepted", bad)
		} else if !strings.HasPrefix(err.Error(), "-rate ") {
			t.Errorf("rate %v: error %q does not name the flag", bad, err)
		}
	}
	// Rates itself exits through Fail: run it in a child process.
	if os.Getenv("CLIFLAGS_RATES_CHILD") == "1" {
		Rates("cmd", "rate", math.NaN())
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRates$")
	cmd.Env = append(os.Environ(), "CLIFLAGS_RATES_CHILD=1")
	out, err := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); err == nil || code != 1 {
		t.Fatalf("Rates(NaN) exited %d (%v), want 1", code, err)
	}
	if want := "cmd: -rate NaN is not an injection rate in [0, 1]"; !strings.Contains(string(out), want) {
		t.Fatalf("Rates(NaN) printed %q, want %q", out, want)
	}
}

// A NaN or negative -cc-* knob is a validation error, not the default.
func TestCCGovernorRejectsBadKnobs(t *testing.T) {
	if g, err := (&CC{Enabled: true}).Governor(64, 1); err != nil || g == nil {
		t.Fatalf("default block: governor %v, error %v", g, err)
	}
	for _, bad := range []float64{math.NaN(), -3} {
		for name, c := range map[string]CC{
			"cc-rate":  {Enabled: true, Rate: bad},
			"cc-min":   {Enabled: true, Min: bad},
			"cc-max":   {Enabled: true, Max: bad},
			"cc-beta":  {Enabled: true, Beta: bad},
			"cc-gain":  {Enabled: true, Gain: bad},
			"cc-depth": {Enabled: true, Depth: bad},
		} {
			if _, err := c.Governor(64, 1); err == nil {
				t.Errorf("-%s %v accepted", name, bad)
			}
		}
	}
	if _, err := (&CC{Enabled: true, Every: -3}).Governor(64, 1); err == nil {
		t.Error("-cc-every -3 accepted")
	}
}

// A negative count flag is an error naming it; zero keeps the default.
func TestCounts(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.Int("warmup", 300, "")
	fs.Int("measure", 1500, "")
	if err := fs.Parse([]string{"-warmup", "0"}); err != nil {
		t.Fatal(err)
	}
	if err := checkCounts(fs, []string{"warmup", "measure"}); err != nil {
		t.Fatalf("valid counts rejected: %v", err)
	}
	if err := fs.Set("measure", "-1"); err != nil {
		t.Fatal(err)
	}
	err := checkCounts(fs, []string{"warmup", "measure"})
	if want := "-measure -1 is negative"; err == nil || err.Error() != want {
		t.Fatalf("got error %v, want %q", err, want)
	}

	// The commands' other counts: phastlane's -window is an int64 flag,
	// its -delay on a fabric used to fall back to fabsim's default when
	// negative, and so did tracegen's -messages to the benchmark's.
	counts := func(args ...string) error {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		RegisterNets(fs)
		fs.Int64("window", 0, "")
		fs.Int("messages", 0, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return checkCounts(fs, []string{"delay", "window", "messages"})
	}
	if err := counts("-window", "0", "-delay", "2", "-messages", "0"); err != nil {
		t.Errorf("valid counts rejected: %v", err)
	}
	for _, tc := range [][2]string{{"window", "-5"}, {"delay", "-3"}, {"messages", "-5"}} {
		err := counts("-"+tc[0], tc[1])
		if want := "-" + tc[0] + " " + tc[1] + " is negative"; err == nil || err.Error() != want {
			t.Errorf("-%s %s: got error %v, want %q", tc[0], tc[1], err, want)
		}
	}
}

// The network-model block builds both mesh configs from its flags, and
// Check rejects a set flag that no network of the run reads: the
// optical-only flags without an optical mesh, -delay without an
// electrical network, and all of them on a run with neither.
func TestNetsCheckRejectsUnusedFlags(t *testing.T) {
	parse := func(args ...string) (*flag.FlagSet, *Geometry, *Nets) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		g := RegisterGeometry(fs)
		n := RegisterNets(fs)
		fs.Int("retry-limit", 0, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs, g, n
	}
	_, g, n := parse("-width", "4", "-height", "4", "-hops", "5", "-buffers", "3", "-delay", "2")
	if o := n.Optical(g, 7); o.Width != 4 || o.Height != 4 || o.MaxHops != 5 || o.BufferEntries != 3 || o.Seed != 7 {
		t.Errorf("optical config %+v", o)
	}
	if e := n.Electrical(g, 7); e.Width != 4 || e.Height != 4 || e.RouterDelay != 2 || e.Seed != 7 {
		t.Errorf("electrical config %+v", e)
	}

	for _, tc := range []struct {
		args                []string
		optical, electrical bool
		want                string // "" = accepted
	}{
		{[]string{"-hops", "5", "-buffers", "3", "-delay", "2"}, true, true, ""},
		{[]string{"-hops", "5", "-retry-limit", "16"}, true, false, ""},
		{[]string{"-delay", "2"}, false, true, ""},
		{nil, false, false, ""},
		{[]string{"-hops", "5"}, false, true, "-hops applies to the optical mesh only"},
		{[]string{"-buffers", "3"}, false, true, "-buffers applies to the optical mesh only"},
		{[]string{"-retry-limit", "16"}, false, true, "-retry-limit applies to the optical mesh only"},
		{[]string{"-delay", "2"}, true, false, "-delay applies to the electrical network only"},
		{[]string{"-delay", "3"}, false, false, "-delay applies to the electrical network only"},
	} {
		fs, _, n := parse(tc.args...)
		err := n.Check(fs, tc.optical, tc.electrical)
		if got := fmt.Sprint(err); (tc.want == "" && err != nil) || (tc.want != "" && got != tc.want) {
			t.Errorf("%v (optical %v, electrical %v): error %v, want %q", tc.args, tc.optical, tc.electrical, err, tc.want)
		}
	}
}
