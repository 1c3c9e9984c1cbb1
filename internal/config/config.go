// Package config defines every simulation parameter, with defaults taken
// from Tables I and II of the paper. Configurations validate themselves
// and round-trip through JSON so experiment sweeps can be described as
// data.
package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/bits"

	"mellow/internal/nvm"
	"mellow/internal/sim"
)

// LineBytes is the cache-line and memory-write granularity (64 bytes
// throughout the paper).
const LineBytes = 64

// CPU describes the processor model (Table I). The clock is fixed at
// 2 GHz by the simulation tick; see package sim.
type CPU struct {
	// IssueWidth is the maximum instructions retired per cycle.
	IssueWidth int
	// ROBEntries bounds the number of in-flight instructions; it sets
	// how much memory-level parallelism the core can expose.
	ROBEntries int
}

// Cache describes one cache level.
type Cache struct {
	// SizeBytes is the total capacity; must be a power of two.
	SizeBytes int
	// Ways is the set associativity, at most MaxCacheWays.
	Ways int
	// HitLatency is the access latency in CPU cycles.
	HitLatency int
	// MSHRs bounds outstanding misses to the next level.
	MSHRs int
}

// MaxCacheWays is the widest associativity a cache level supports: a
// set keeps its LRU order as sixteen 4-bit way indices in one word.
const MaxCacheWays = 16

// Sets returns the number of sets.
func (c Cache) Sets() int { return c.SizeBytes / (LineBytes * c.Ways) }

func (c Cache) validate(name string) error {
	if c.SizeBytes <= 0 || bits.OnesCount(uint(c.SizeBytes)) != 1 {
		return fmt.Errorf("config: %s size %d is not a positive power of two", name, c.SizeBytes)
	}
	if c.Ways <= 0 || c.SizeBytes%(LineBytes*c.Ways) != 0 {
		return fmt.Errorf("config: %s ways %d does not divide %d lines", name, c.Ways, c.SizeBytes/LineBytes)
	}
	if c.Ways > MaxCacheWays {
		return fmt.Errorf("config: %s ways %d exceeds %d", name, c.Ways, MaxCacheWays)
	}
	if s := c.Sets(); bits.OnesCount(uint(s)) != 1 {
		return fmt.Errorf("config: %s set count %d is not a power of two", name, s)
	}
	if c.HitLatency <= 0 {
		return fmt.Errorf("config: %s hit latency must be positive", name)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("config: %s MSHR count must be positive", name)
	}
	return nil
}

// Hierarchy describes the three-level cache hierarchy of Table I. The L1
// is the data cache (instruction fetches are assumed to hit).
type Hierarchy struct {
	L1, L2, L3 Cache
	// UselessHitRatio is the Eager Mellow Writes threshold: LRU stack
	// positions whose cumulative tail hit share is below this fraction
	// of all LLC requests are "useless" (paper: 1/32).
	UselessHitRatio float64
	// ProfilePeriod is T_sample for the LRU-position profiler (500 µs).
	ProfilePeriod sim.Tick
	// EagerPredictor selects how eager write-back candidates are found:
	// "lru-profile" (the paper's §IV-B1 scheme, default) or "decay"
	// (timeout-style dead-block prediction, the §VII future direction).
	EagerPredictor string
	// DecayAccesses is the decay predictor's staleness threshold in LLC
	// accesses; ignored by the lru-profile predictor.
	DecayAccesses uint64
}

// Memory describes the resistive main-memory system (Table II).
type Memory struct {
	// Channels, Ranks and BanksPerRank set the topology; the paper's
	// default is one channel of 4 ranks × 4 banks. Each channel has its
	// own data bus; ranks and banks are per channel.
	Channels     int
	Ranks        int
	BanksPerRank int
	// CapacityBytes is total memory capacity (wear accounting needs it).
	CapacityBytes int64
	// RowBytes is the DRAM-style row (page) size per bank: 16 KB.
	RowBytes int
	// RowBufferBytes is the row-buffer (open page) size: 1 KB.
	RowBufferBytes int
	// Queue depths (entries) and the write-drain thresholds.
	ReadQueue, WriteQueue, EagerQueue int
	DrainHigh, DrainLow               int
	// Timing parameters.
	TRCD sim.Tick // activate (row) latency: 120 ns
	TCAS sim.Tick // column access: 2.5 ns
	TFAW sim.Tick // four-activate window: 50 ns
	// BurstCycles is the data-bus occupancy of one 64-byte transfer on
	// the 64-bit 400 MHz DDR bus (800 MT/s): 8 beats = 4 memory cycles.
	BurstCycles int
	// Device is the ReRAM latency/endurance model.
	Device nvm.Device
	// Cell selects the energy design point (Table V); Fig. 16 uses CellC.
	Cell nvm.Cell
	// Scheduler selects the read-queue service order per bank: "fcfs"
	// (default; the paper describes plain priority order) or "frfcfs"
	// (first-ready FCFS: row-buffer hits first, NVMain's usual default).
	Scheduler string
	// StartGapPsi is the Start-Gap gap-movement interval (writes per
	// move); the original paper uses ψ=100.
	StartGapPsi int
	// StartGapEfficiency is the fraction of ideal leveling achieved;
	// §IV-C conservatively uses 0.9.
	StartGapEfficiency float64
	// WearLeveler selects the wear-leveling backend: "startgap" (the
	// paper's scheme, default), "wolfram" (WoLFRaM-style programmable-
	// address-decoder block remapping) or "softwear" (SoftWear-style
	// software-only page-granularity leveling). The field is part of the
	// canonical JSON, so runs under different backends hash to different
	// content addresses.
	WearLeveler string
	// WolframSwapPeriod is the wolfram backend's remap interval: the
	// written block swaps frames with a random partner every this many
	// bank writes.
	WolframSwapPeriod int
	// SoftWearPageBlocks is the softwear page size in 64-byte blocks; a
	// power of two dividing BlocksPerBank (default 64 = a 4 KB OS page).
	SoftWearPageBlocks int
	// SoftWearEpochWrites is the softwear remap-evaluation epoch in bank
	// writes: at each boundary the hottest page may migrate to the
	// coldest frame.
	SoftWearEpochWrites int
}

// Banks returns the total bank count across all channels.
func (m Memory) Banks() int { return m.Channels * m.Ranks * m.BanksPerRank }

// TotalRanks returns the rank count across all channels.
func (m Memory) TotalRanks() int { return m.Channels * m.Ranks }

// BlocksPerBank returns the number of 64-byte blocks per bank.
func (m Memory) BlocksPerBank() int64 {
	return m.CapacityBytes / int64(m.Banks()) / LineBytes
}

// Run bounds the simulation length.
type Run struct {
	// WarmupInstructions run with caches live but statistics frozen.
	WarmupInstructions uint64
	// DetailedInstructions are measured.
	DetailedInstructions uint64
	// Seed drives every stochastic choice in the run.
	Seed uint64
}

// Config is the complete system configuration.
type Config struct {
	CPU    CPU
	Caches Hierarchy
	Memory Memory
	Run    Run
}

// Default returns the paper's baseline configuration (Tables I and II),
// with run lengths scaled to laptop budgets (see DESIGN.md §4).
func Default() Config {
	return Config{
		CPU: CPU{IssueWidth: 8, ROBEntries: 192},
		Caches: Hierarchy{
			L1:              Cache{SizeBytes: 32 << 10, Ways: 4, HitLatency: 2, MSHRs: 8},
			L2:              Cache{SizeBytes: 256 << 10, Ways: 8, HitLatency: 12, MSHRs: 12},
			L3:              Cache{SizeBytes: 2 << 20, Ways: 16, HitLatency: 35, MSHRs: 32},
			UselessHitRatio: 1.0 / 32.0,
			ProfilePeriod:   sim.NS(500000),
			EagerPredictor:  "lru-profile",
			DecayAccesses:   65536, // ~2 LLC turnovers
		},
		Memory: Memory{
			Channels:            1,
			Ranks:               4,
			BanksPerRank:        4,
			CapacityBytes:       8 << 30,
			RowBytes:            16 << 10,
			RowBufferBytes:      1 << 10,
			ReadQueue:           32,
			WriteQueue:          32,
			EagerQueue:          16,
			DrainHigh:           32,
			DrainLow:            16,
			TRCD:                sim.NS(120),
			TCAS:                sim.MemCycle, // 2.5 ns
			TFAW:                sim.NS(50),
			BurstCycles:         4,
			Device:              nvm.DefaultDevice(),
			Cell:                nvm.CellC,
			Scheduler:           "fcfs",
			StartGapPsi:         100,
			StartGapEfficiency:  0.9,
			WearLeveler:         "startgap",
			WolframSwapPeriod:   100,
			SoftWearPageBlocks:  64,
			SoftWearEpochWrites: 4096,
		},
		Run: Run{
			WarmupInstructions:   10_000_000,
			DetailedInstructions: 20_000_000,
			Seed:                 1,
		},
	}
}

// Validate checks internal consistency. A Config from Default always
// validates.
func (c Config) Validate() error {
	if c.CPU.IssueWidth <= 0 {
		return fmt.Errorf("config: issue width must be positive")
	}
	if c.CPU.ROBEntries <= 0 {
		return fmt.Errorf("config: ROB size must be positive")
	}
	for _, lv := range []struct {
		name string
		c    Cache
	}{{"L1", c.Caches.L1}, {"L2", c.Caches.L2}, {"L3", c.Caches.L3}} {
		if err := lv.c.validate(lv.name); err != nil {
			return err
		}
	}
	if c.Caches.L1.SizeBytes > c.Caches.L2.SizeBytes || c.Caches.L2.SizeBytes > c.Caches.L3.SizeBytes {
		return fmt.Errorf("config: cache sizes must be nondecreasing by level")
	}
	if c.Caches.UselessHitRatio <= 0 || c.Caches.UselessHitRatio >= 1 {
		return fmt.Errorf("config: useless hit ratio %v out of (0,1)", c.Caches.UselessHitRatio)
	}
	if c.Caches.ProfilePeriod == 0 {
		return fmt.Errorf("config: profile period must be positive")
	}
	switch c.Caches.EagerPredictor {
	case "lru-profile":
	case "decay":
		if c.Caches.DecayAccesses == 0 {
			return fmt.Errorf("config: decay predictor needs a positive threshold")
		}
	default:
		return fmt.Errorf("config: unknown eager predictor %q", c.Caches.EagerPredictor)
	}
	m := c.Memory
	if m.Channels <= 0 || m.Ranks <= 0 || m.BanksPerRank <= 0 {
		return fmt.Errorf("config: need at least one channel, rank and bank")
	}
	if bits.OnesCount(uint(m.Channels)) != 1 {
		return fmt.Errorf("config: channel count %d must be a power of two", m.Channels)
	}
	if bits.OnesCount(uint(m.Banks())) != 1 {
		return fmt.Errorf("config: bank count %d must be a power of two", m.Banks())
	}
	if m.CapacityBytes <= 0 || m.CapacityBytes%(int64(m.Banks())*LineBytes) != 0 {
		return fmt.Errorf("config: capacity %d not divisible across %d banks", m.CapacityBytes, m.Banks())
	}
	if m.RowBufferBytes <= 0 || m.RowBytes%m.RowBufferBytes != 0 {
		return fmt.Errorf("config: row %dB not a multiple of row buffer %dB", m.RowBytes, m.RowBufferBytes)
	}
	if m.RowBufferBytes%LineBytes != 0 {
		return fmt.Errorf("config: row buffer must hold whole lines")
	}
	if m.ReadQueue <= 0 || m.WriteQueue <= 0 || m.EagerQueue < 0 {
		return fmt.Errorf("config: queue depths must be positive (eager may be zero)")
	}
	// DrainLow == DrainHigh is the degenerate-but-valid hysteresis: each
	// drain entry services exactly one write before the low mark clears.
	if m.DrainHigh > m.WriteQueue || m.DrainHigh <= 0 || m.DrainLow > m.DrainHigh || m.DrainLow < 0 {
		return fmt.Errorf("config: drain thresholds low=%d high=%d invalid for queue %d",
			m.DrainLow, m.DrainHigh, m.WriteQueue)
	}
	if m.TRCD == 0 || m.TCAS == 0 {
		return fmt.Errorf("config: timing parameters must be positive")
	}
	if m.BurstCycles <= 0 {
		return fmt.Errorf("config: burst length must be positive")
	}
	if m.Device.BaseLatency == 0 || m.Device.BaseEndurance <= 0 {
		return fmt.Errorf("config: device model incomplete")
	}
	if m.Device.ExpoFactor < 0.5 || m.Device.ExpoFactor > 4.0 {
		return fmt.Errorf("config: ExpoFactor %v outside plausible range [0.5,4]", m.Device.ExpoFactor)
	}
	switch m.Scheduler {
	case "fcfs", "frfcfs":
	default:
		return fmt.Errorf("config: unknown scheduler %q (want fcfs or frfcfs)", m.Scheduler)
	}
	if m.StartGapPsi <= 0 {
		return fmt.Errorf("config: Start-Gap psi must be positive")
	}
	if m.StartGapEfficiency <= 0 || m.StartGapEfficiency > 1 {
		return fmt.Errorf("config: Start-Gap efficiency %v out of (0,1]", m.StartGapEfficiency)
	}
	switch m.WearLeveler {
	case "", "startgap", "wolfram", "softwear":
	default:
		return fmt.Errorf("config: unknown wear leveler %q (want startgap, wolfram or softwear)", m.WearLeveler)
	}
	if m.WolframSwapPeriod <= 0 {
		return fmt.Errorf("config: wolfram swap period must be positive, got %d", m.WolframSwapPeriod)
	}
	if m.SoftWearPageBlocks <= 0 || bits.OnesCount(uint(m.SoftWearPageBlocks)) != 1 {
		return fmt.Errorf("config: softwear page size %d blocks is not a positive power of two", m.SoftWearPageBlocks)
	}
	if m.BlocksPerBank()%int64(m.SoftWearPageBlocks) != 0 {
		return fmt.Errorf("config: softwear page size %d does not divide %d blocks per bank",
			m.SoftWearPageBlocks, m.BlocksPerBank())
	}
	if m.SoftWearEpochWrites <= 0 {
		return fmt.Errorf("config: softwear epoch must be positive, got %d", m.SoftWearEpochWrites)
	}
	if c.Run.DetailedInstructions == 0 {
		return fmt.Errorf("config: detailed instruction count must be positive")
	}
	return nil
}

// WithBanks returns a copy configured for the given per-channel bank
// count, preserving the paper's 4-banks-per-rank layout (Table II offers
// 4, 8 and 16 banks as 1, 2 and 4 ranks).
func (c Config) WithBanks(banks int) (Config, error) {
	if banks%4 != 0 || banks <= 0 {
		return c, fmt.Errorf("config: bank count %d not a multiple of 4", banks)
	}
	c.Memory.Ranks = banks / 4
	c.Memory.BanksPerRank = 4
	return c, c.Validate()
}

// CanonicalJSON renders the configuration in its canonical byte form:
// the stdlib encoding with fields in declaration order and no insigni-
// ficant whitespace. Two Configs with equal values produce identical
// bytes, which makes the encoding safe to hash for content addressing.
func (c Config) CanonicalJSON() ([]byte, error) {
	return json.Marshal(c)
}

// Hash returns the hex SHA-256 of the canonical JSON — the identity of
// this configuration for memoisation and result caches.
func (c Config) Hash() (string, error) {
	b, err := c.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
