package main

import (
	"strings"
	"testing"

	"mind/internal/core"
	"mind/internal/sim"
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
// name. `mindsim -racks 2 -workload GC` used to run one rack, and
// `-serve -kill-blade-at 1ms -kill-blade 1` to inject nothing.
func TestModeFlagsAreChecked(t *testing.T) {
	for _, tc := range []struct {
		serve bool
		set   []string
		want  []string // flags the error must name; none: no error
	}{
		{false, []string{"workload", "threads", "runs", "parallel", "kill-blade-at", "kill-blade", "seed"}, nil},
		{true, []string{"serve", "racks", "workers", "serve-deadline", "kill-blade", "kill-switch", "ops", "cache"}, nil},
		{false, []string{"racks", "workload"}, []string{"-racks"}},
		{false, []string{"workers", "serve-rate", "serve-qos", "serve-horizon", "kill-switch"},
			[]string{"-workers", "-serve-rate", "-serve-qos", "-serve-horizon", "-kill-switch"}},
		{false, []string{"serve-deadline", "serve-retries", "serve-brownout"},
			[]string{"-serve-deadline", "-serve-retries", "-serve-brownout"}},
		{true, []string{"serve", "kill-blade-at", "kill-blade"}, []string{"-kill-blade-at"}},
		{true, []string{"serve", "add-blade-at"}, []string{"-add-blade-at"}},
		{true, []string{"serve", "drain-blade-at"}, []string{"-drain-blade-at"}},
		{true, []string{"serve", "runs", "parallel"}, []string{"-runs", "-parallel"}},
		{true, []string{"serve", "threads"}, []string{"-threads"}},
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
