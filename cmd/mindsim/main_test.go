package main

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"mind/internal/core"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/workloads"
)

// TestRackFlagsReachBothModes: -consistency, -dirslots and -epoch shape
// the racks of the closed-loop mode and of -serve alike. Serving mode
// used to build its racks from capacity, cache and seed only, so
// `mindsim -serve -consistency pso` ran TSO without a word.
func TestRackFlagsReachBothModes(t *testing.T) {
	shape := rackShape{
		blades:      2,
		memBlades:   2,
		cachePages:  64,
		consistency: core.PSO,
		dirSlots:    77,
		epoch:       3 * sim.Millisecond,
	}
	check := func(mode string, cfg core.Config) {
		t.Helper()
		if cfg.Consistency != core.PSO {
			t.Errorf("%s: -consistency pso built a %v rack", mode, cfg.Consistency)
		}
		if cfg.ASIC.SlotCapacity != 77 {
			t.Errorf("%s: -dirslots 77 built a rack of %d slots", mode, cfg.ASIC.SlotCapacity)
		}
		if cfg.SplitterEpoch != 3*sim.Millisecond {
			t.Errorf("%s: -epoch 3ms built a rack with epoch %v", mode, cfg.SplitterEpoch)
		}
		if cfg.CachePagesPerBlade != 64 || cfg.Seed != 5 {
			t.Errorf("%s: cache %d pages, seed %d; want 64, 5", mode, cfg.CachePagesPerBlade, cfg.Seed)
		}
	}

	c, err := core.NewCluster(shape.config(5))
	if err != nil {
		t.Fatal(err)
	}
	check("closed-loop", c.Config())

	pod, err := newServePod(shape, 2, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pod.Racks(); i++ {
		check("serve", pod.Rack(i).Config())
	}

	// Left at their defaults the flags change nothing.
	shape.consistency, shape.dirSlots, shape.epoch = core.TSO, 0, 0
	def := core.DefaultConfig(2, 2)
	if got := shape.config(5); got.ASIC.SlotCapacity != def.ASIC.SlotCapacity || got.SplitterEpoch != def.SplitterEpoch {
		t.Errorf("default flags moved the directory capacity or the epoch: %d slots, epoch %v", got.ASIC.SlotCapacity, got.SplitterEpoch)
	}

	if _, err := newServePod(shape, 0, 0, 5); err == nil {
		t.Error("-racks 0 built a pod")
	}
}

// TestModeFlagsAreChecked: a flag only the other mode reads is refused by
// name. `mindsim -racks 2 -workload GC` used to run one rack. The four
// membership events reach both modes.
func TestModeFlagsAreChecked(t *testing.T) {
	for _, tc := range []struct {
		serve bool
		set   []string
		want  []string // flags the error must name; none: no error
	}{
		{false, []string{"workload", "threads", "runs", "parallel", "seed"}, nil},
		{false, []string{"add-blade", "drain-blade", "kill-blade", "kill-switch"}, nil},
		{true, []string{"serve", "racks", "workers", "serve-deadline", "ops", "cache"}, nil},
		{true, []string{"serve", "add-blade", "drain-blade", "kill-blade", "kill-switch"}, nil},
		{false, []string{"racks", "workload"}, []string{"-racks"}},
		{false, []string{"workers", "serve-rate", "serve-qos", "serve-horizon"},
			[]string{"-workers", "-serve-rate", "-serve-qos", "-serve-horizon"}},
		{false, []string{"serve-deadline", "serve-retries", "serve-brownout"},
			[]string{"-serve-deadline", "-serve-retries", "-serve-brownout"}},
		{true, []string{"serve", "runs", "parallel"}, []string{"-runs", "-parallel"}},
		{true, []string{"serve", "threads", "kill-blade"}, []string{"-threads"}},
	} {
		err := checkModeFlags(tc.serve, tc.set)
		if len(tc.want) == 0 {
			if err != nil {
				t.Errorf("serve=%v %v: %v", tc.serve, tc.set, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("serve=%v %v: accepted, want an error naming %v", tc.serve, tc.set, tc.want)
			continue
		}
		for _, name := range tc.want {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("serve=%v %v: error %q does not name %s", tc.serve, tc.set, err, name)
			}
		}
	}
}

// TestParseTimedFault: the one event syntax, dur:rack for a blade add or
// a switch failover and dur:rack:blade for a drain or a kill.
func TestParseTimedFault(t *testing.T) {
	for _, tc := range []struct {
		s         string
		wantBlade bool
		want      timedFault
		err       string // substring of the error; empty: must parse
	}{
		{"2ms:1", false, timedFault{at: 2 * sim.Millisecond, rack: 1}, ""},
		{"1500us:0:3", true, timedFault{at: 1500 * sim.Microsecond, rack: 0, blade: 3}, ""},
		{"2ms:1", true, timedFault{}, "not of the form dur:rack:blade"},
		{"2ms:1:0", false, timedFault{}, "not of the form dur:rack"},
		{"2ms:1:0:0", true, timedFault{}, "not of the form"},
		{"soon:1:0", true, timedFault{}, "bad event time"},
		{"0s:1:0", true, timedFault{}, "bad event time"},
		{"-1ms:1", false, timedFault{}, "bad event time"},
		{"1ms:x", false, timedFault{}, "bad rack"},
		{"1ms:0:b", true, timedFault{}, "bad blade"},
	} {
		got, err := parseTimedFault("kill-blade", tc.s, tc.wantBlade)
		if tc.err == "" {
			if err != nil || got != tc.want {
				t.Errorf("%q (blade %v): %+v, %v; want %+v", tc.s, tc.wantBlade, got, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.err) || !strings.Contains(err.Error(), "-kill-blade") {
			t.Errorf("%q (blade %v): error %v, want one naming -kill-blade and %q", tc.s, tc.wantBlade, err, tc.err)
		}
	}
}

// TestNumericFlagsAreChecked: a number no run can use exits 2 naming its
// flag. `-scale -1` used to panic, `-threads 0` to print hits NaN%, and
// `-cache -1` or `-epoch -1ms` to run a default without a word. The
// defaults pass.
func TestNumericFlagsAreChecked(t *testing.T) {
	parse := func(args ...string) error {
		fs := flag.NewFlagSet("mindsim", flag.ContinueOnError)
		n := numericFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return n.check()
	}
	if err := parse(); err != nil {
		t.Fatalf("defaults: %v", err)
	}
	for _, tc := range [][2]string{
		{"threads", "0"}, {"ops", "0"}, {"scale", "0"}, {"scale", "-1"}, {"scale", "-3"},
		{"cache", "0"}, {"cache", "-1"}, {"read", "1.5"}, {"read", "-0.1"},
		{"sharing", "-1"}, {"sharing", "2"}, {"dirslots", "-5"}, {"epoch", "-1ms"},
		{"serve-horizon", "-1ms"}, {"serve-rate", "0"}, {"serve-rate", "-5"}, {"serve-qos", "-1"},
	} {
		err := parse("-"+tc[0], tc[1])
		if err == nil || !strings.Contains(err.Error(), "-"+tc[0]+" ") {
			t.Errorf("-%s %s: error %v, want one naming -%s", tc[0], tc[1], err, tc[0])
		}
	}
}

// runServe runs serving mode as `mindsim -serve -racks 2 -ops 2000`
// with the other flags at their defaults, on the given executor workers
// and membership events, and returns its report.
func runServe(t *testing.T, workers int, faults timedFaults) (string, error) {
	t.Helper()
	w, err := workloads.ByName("TF", 1)
	if err != nil {
		t.Fatal(err)
	}
	shape := rackShape{blades: 2, memBlades: 8, cachePages: max(64, int(float64(w.Footprint/mem.PageSize)*0.25))}
	var out strings.Builder
	err = runServeMode(&out, w, shape, 2, workers, 2000, 1, 100_000, 150_000, 0, 0, 0, 0, faults)
	return out.String(), err
}

// TestServeEventsCountFromRunStart: in serving mode an event's time
// counts from the serving run's start, as in closed-loop mode. The
// events used to be registered before tenant setup, whose mmaps take
// ~186 µs of virtual time, so `-kill-switch 100us:1` fired before any
// traffic: 0 regions reset, a 0 ms blackout.
func TestServeEventsCountFromRunStart(t *testing.T) {
	out, err := runServe(t, 0, timedFaults{failover: &timedFault{at: 100 * sim.Microsecond, rack: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var regions int
	var blackout float64
	i := strings.Index(out, "switch failover")
	if i < 0 {
		t.Fatalf("no failover report in:\n%s", out)
	}
	if _, err := fmt.Sscanf(out[i:], "switch failover  rack=1: %d regions reset, blackout %f ms", &regions, &blackout); err != nil {
		t.Fatalf("failover report %q: %v", out[i:], err)
	}
	if regions == 0 || blackout <= 0 {
		t.Errorf("a failover 100 µs into serving reset %d regions in a %.3f ms blackout; want traffic's regions reset", regions, blackout)
	}
}

// TestServeFaultErrorsDoNotRace: two failing events on different racks
// in one window complete on two executor goroutines. Each writes its
// own error, and the reported one is fixed (add, drain, kill, failover
// order): the drain's, named by its flag. The two used to share one
// slot, a data race under -race whose winner decided the message.
func TestServeFaultErrorsDoNotRace(t *testing.T) {
	_, err := runServe(t, 2, timedFaults{
		drain: &timedFault{at: 100 * sim.Microsecond, rack: 0, blade: 99},
		kill:  &timedFault{at: 100 * sim.Microsecond, rack: 1, blade: 99},
	})
	if err == nil || !strings.Contains(err.Error(), "-drain-blade: core: no memory blade 99") {
		t.Fatalf("error %v, want the drain's, naming -drain-blade", err)
	}
}
