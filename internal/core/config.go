// Package core assembles the MIND topology. A Rack is the paper's
// Figure 2 unit: compute blades with local DRAM caches, passive memory
// blades, and the programmable switch hosting the control plane
// (allocation, protection, processes, Bounded Splitting) and data plane
// (translation, protection checks, cache directory, RDMA
// virtualization). A Pod composes N racks over an inter-rack
// interconnect with cross-rack blade borrowing and hot-page promotion;
// Cluster is the single-rack facade (a 1-rack Pod) the paper-facing
// consumers use. The package exposes the transparent virtual memory API
// applications use — mmap/munmap, Load/Store — plus the workload-driven
// execution engine the evaluation harness runs.
package core

import (
	"mind/internal/coherence"
	"mind/internal/ctrlplane"
	"mind/internal/fabric"
	"mind/internal/sim"
	"mind/internal/switchasic"
)

// Consistency selects the memory consistency model (§6.1, §7.1).
type Consistency int

const (
	// TSO is MIND's default: writes fault synchronously (x86 page-fault
	// limitation, §6.1).
	TSO Consistency = iota
	// PSO simulates Process Store Order: writes propagate asynchronously;
	// reads to pages with pending writes block (the MIND-PSO variant).
	PSO
	// PSOPlus is PSO with infinite switch directory capacity (the
	// MIND-PSO+ variant).
	PSOPlus
)

func (c Consistency) String() string {
	switch c {
	case TSO:
		return "TSO"
	case PSO:
		return "PSO"
	case PSOPlus:
		return "PSO+"
	default:
		return "consistency(?)"
	}
}

// Config assembles a cluster.
type Config struct {
	// ComputeBlades and MemoryBlades size the rack (§7: up to 8 compute
	// blades, memory blades hosted on one server).
	ComputeBlades int
	MemoryBlades  int
	// MemoryBladeCapacity is each memory blade's capacity (power of two).
	MemoryBladeCapacity uint64
	// CachePagesPerBlade sizes each compute blade's local DRAM cache; the
	// paper uses 512 MB ≈ 25% of workload footprint (§7).
	CachePagesPerBlade int
	// Consistency selects TSO (default), PSO, or PSO+. Only the access
	// loop of a generator-driven thread (Thread.Start) reads it, apart
	// from PSO+ lifting the directory cap at construction: blocking
	// Load, Store and Touch run the same path under every model.
	Consistency Consistency
	// Placement selects the allocation placement policy (§4.1).
	Placement ctrlplane.PlacementPolicy
	// InitialRegionSize and TopLevelRegionSize parameterize directory
	// granularity (§5; 0 takes coherence.DefaultConfig's 16 KB and 2 MB).
	InitialRegionSize  uint64
	TopLevelRegionSize uint64
	// SplitterEpoch is the Bounded Splitting epoch (0 takes
	// ctrlplane.DefaultSplitterConfig's 100 ms). Set DisableSplitting for
	// fixed-granularity ablations (Figure 9 left).
	SplitterEpoch    sim.Duration
	DisableSplitting bool
	// ASIC and Fabric carry the switch and network calibration constants;
	// every compute blade is built from computeblade.DefaultConfig.
	ASIC   switchasic.Config
	Fabric fabric.Config
	// StoreBufferDepth bounds outstanding async writes under PSO.
	StoreBufferDepth int
	// Migration throttles live page migration during blade drains and
	// paces failure detection (online memory elasticity).
	Migration MigrationConfig
	// Seed is read by nothing in this package: the simulation's random
	// streams are seeded by workloads.Params.Seed, ServeConfig.Seed and
	// the arrival processes' seeds.
	Seed uint64
}

// MigrationConfig paces online memory elasticity. A drain moves pages in
// batches of BatchPages with migrationBatchGap of idle fabric time
// between batches, so foreground traffic keeps flowing through the same
// NICs; DetectionDelay models how long the control plane takes to notice
// a dead memory blade before recovery starts.
type MigrationConfig struct {
	BatchPages     int
	DetectionDelay sim.Duration
}

// DefaultMigrationConfig returns the drain throttle operating point
// (see TestDrainBatchTradeoff for the measured tradeoff).
func DefaultMigrationConfig() MigrationConfig {
	return MigrationConfig{
		BatchPages:     32,
		DetectionDelay: 50 * sim.Microsecond,
	}
}

// DefaultConfig returns a rack calibrated to the paper's testbed: the
// given number of compute/memory blades, 30k directory slots (the only
// switch budget enforced; match-action rules are counted, not capped),
// 16 KB initial regions, 100 ms epochs.
func DefaultConfig(computeBlades, memoryBlades int) Config {
	dir := coherence.DefaultConfig()
	return Config{
		ComputeBlades:       computeBlades,
		MemoryBlades:        memoryBlades,
		MemoryBladeCapacity: 1 << 32, // 4 GB per blade
		CachePagesPerBlade:  128 << 10 / 4,
		Consistency:         TSO,
		Placement:           ctrlplane.PlaceLeastLoaded,
		InitialRegionSize:   dir.InitialRegionSize,
		TopLevelRegionSize:  dir.TopLevelSize,
		SplitterEpoch:       sim.Duration(ctrlplane.DefaultSplitterConfig().Epoch),
		ASIC:                switchasic.DefaultConfig(),
		Fabric:              fabric.DefaultConfig(),
		StoreBufferDepth:    16,
		Migration:           DefaultMigrationConfig(),
		Seed:                1,
	}
}
