package config

import (
	"encoding/json"
	"reflect"
	"testing"

	"mellow/internal/nvm"
	"mellow/internal/sim"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultMatchesTables(t *testing.T) {
	c := Default()
	// Table I.
	if c.CPU.IssueWidth != 8 {
		t.Errorf("issue width = %d, want 8", c.CPU.IssueWidth)
	}
	if c.Caches.L1.SizeBytes != 32<<10 || c.Caches.L1.Ways != 4 || c.Caches.L1.HitLatency != 2 || c.Caches.L1.MSHRs != 8 {
		t.Errorf("L1 config mismatch: %+v", c.Caches.L1)
	}
	if c.Caches.L2.SizeBytes != 256<<10 || c.Caches.L2.Ways != 8 || c.Caches.L2.HitLatency != 12 || c.Caches.L2.MSHRs != 12 {
		t.Errorf("L2 config mismatch: %+v", c.Caches.L2)
	}
	if c.Caches.L3.SizeBytes != 2<<20 || c.Caches.L3.Ways != 16 || c.Caches.L3.HitLatency != 35 || c.Caches.L3.MSHRs != 32 {
		t.Errorf("L3 config mismatch: %+v", c.Caches.L3)
	}
	if c.Caches.UselessHitRatio != 1.0/32.0 {
		t.Errorf("useless ratio = %v, want 1/32", c.Caches.UselessHitRatio)
	}
	if c.Caches.ProfilePeriod != sim.NS(500000) {
		t.Errorf("profile period = %v, want 500000 ns", c.Caches.ProfilePeriod)
	}
	// Table II.
	if c.Memory.Banks() != 16 || c.Memory.Ranks != 4 {
		t.Errorf("default topology = %d banks in %d ranks, want 16 in 4", c.Memory.Banks(), c.Memory.Ranks)
	}
	if c.Memory.ReadQueue != 32 || c.Memory.WriteQueue != 32 || c.Memory.EagerQueue != 16 {
		t.Errorf("queue depths %d/%d/%d, want 32/32/16",
			c.Memory.ReadQueue, c.Memory.WriteQueue, c.Memory.EagerQueue)
	}
	if c.Memory.DrainLow != 16 || c.Memory.DrainHigh != 32 {
		t.Errorf("drain thresholds %d/%d, want 16/32", c.Memory.DrainLow, c.Memory.DrainHigh)
	}
	if c.Memory.TRCD != sim.NS(120) || c.Memory.TCAS != sim.MemCycle || c.Memory.TFAW != sim.NS(50) {
		t.Errorf("timing mismatch: tRCD=%d tCAS=%d tFAW=%d", c.Memory.TRCD, c.Memory.TCAS, c.Memory.TFAW)
	}
	if c.Memory.RowBytes != 16<<10 || c.Memory.RowBufferBytes != 1<<10 {
		t.Errorf("row sizes mismatch: %d/%d", c.Memory.RowBytes, c.Memory.RowBufferBytes)
	}
	if c.Memory.Device.BaseEndurance != 5e6 || c.Memory.Device.ExpoFactor != 2.0 {
		t.Errorf("device mismatch: %+v", c.Memory.Device)
	}
	if c.Memory.Cell != nvm.CellC {
		t.Errorf("cell = %v, want CellC", c.Memory.Cell)
	}
	if c.Memory.StartGapEfficiency != 0.9 {
		t.Errorf("Start-Gap efficiency = %v, want 0.9", c.Memory.StartGapEfficiency)
	}
}

func TestBlocksPerBank(t *testing.T) {
	c := Default()
	want := int64(8<<30) / 16 / 64
	if got := c.Memory.BlocksPerBank(); got != want {
		t.Errorf("BlocksPerBank = %d, want %d", got, want)
	}
}

func TestWithBanks(t *testing.T) {
	for _, banks := range []int{4, 8, 16} {
		c, err := Default().WithBanks(banks)
		if err != nil {
			t.Fatalf("WithBanks(%d): %v", banks, err)
		}
		if c.Memory.Banks() != banks || c.Memory.BanksPerRank != 4 {
			t.Errorf("WithBanks(%d) = %d banks, %d per rank", banks, c.Memory.Banks(), c.Memory.BanksPerRank)
		}
	}
	if _, err := Default().WithBanks(6); err == nil {
		t.Error("WithBanks(6) should fail")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := map[string]func(*Config){
		"zero issue width":     func(c *Config) { c.CPU.IssueWidth = 0 },
		"zero ROB":             func(c *Config) { c.CPU.ROBEntries = 0 },
		"non-pow2 L1":          func(c *Config) { c.Caches.L1.SizeBytes = 3000 },
		"zero ways":            func(c *Config) { c.Caches.L2.Ways = 0 },
		"32-way L3":            func(c *Config) { c.Caches.L3.Ways = 32 },
		"zero hit latency":     func(c *Config) { c.Caches.L3.HitLatency = 0 },
		"zero MSHRs":           func(c *Config) { c.Caches.L1.MSHRs = 0 },
		"L1 bigger than L2":    func(c *Config) { c.Caches.L1.SizeBytes = 1 << 20 },
		"bad useless ratio":    func(c *Config) { c.Caches.UselessHitRatio = 1.5 },
		"zero profile period":  func(c *Config) { c.Caches.ProfilePeriod = 0 },
		"zero ranks":           func(c *Config) { c.Memory.Ranks = 0 },
		"zero channels":        func(c *Config) { c.Memory.Channels = 0 },
		"non-pow2 channels":    func(c *Config) { c.Memory.Channels = 3 },
		"non-pow2 banks":       func(c *Config) { c.Memory.Ranks = 3 },
		"odd capacity":         func(c *Config) { c.Memory.CapacityBytes = 1000 },
		"row buffer mismatch":  func(c *Config) { c.Memory.RowBufferBytes = 999 },
		"zero read queue":      func(c *Config) { c.Memory.ReadQueue = 0 },
		"drain low > high":     func(c *Config) { c.Memory.DrainLow = 33 },
		"drain high too big":   func(c *Config) { c.Memory.DrainHigh = 64 },
		"negative drain low":   func(c *Config) { c.Memory.DrainLow = -1 },
		"zero drain high":      func(c *Config) { c.Memory.DrainHigh = 0; c.Memory.DrainLow = 0 },
		"unknown leveler":      func(c *Config) { c.Memory.WearLeveler = "chalkboard" },
		"zero wolfram period":  func(c *Config) { c.Memory.WolframSwapPeriod = 0 },
		"non-pow2 page":        func(c *Config) { c.Memory.SoftWearPageBlocks = 48 },
		"page exceeds bank":    func(c *Config) { c.Memory.SoftWearPageBlocks = 1 << 30 },
		"zero softwear epoch":  func(c *Config) { c.Memory.SoftWearEpochWrites = 0 },
		"zero tRCD":            func(c *Config) { c.Memory.TRCD = 0 },
		"zero burst":           func(c *Config) { c.Memory.BurstCycles = 0 },
		"zero endurance":       func(c *Config) { c.Memory.Device.BaseEndurance = 0 },
		"silly expo factor":    func(c *Config) { c.Memory.Device.ExpoFactor = 9 },
		"zero psi":             func(c *Config) { c.Memory.StartGapPsi = 0 },
		"bad SG efficiency":    func(c *Config) { c.Memory.StartGapEfficiency = 0 },
		"zero detailed instrs": func(c *Config) { c.Run.DetailedInstructions = 0 },
	}
	for name, mutate := range mutations {
		c := Default()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", name)
		}
	}
}

// Degenerate hysteresis (DrainLow == DrainHigh) is valid: the window
// collapses to a single flip point (§VI-C boundary behavior).
func TestValidateAcceptsDegenerateDrainWindow(t *testing.T) {
	c := Default()
	c.Memory.DrainLow = c.Memory.DrainHigh
	if err := c.Validate(); err != nil {
		t.Fatalf("DrainLow == DrainHigh rejected: %v", err)
	}
}

// Every selectable wear backend validates with default parameters, and
// the empty string (meaning startgap) does too.
func TestValidateAcceptsAllLevelers(t *testing.T) {
	for _, name := range []string{"", "startgap", "wolfram", "softwear"} {
		c := Default()
		c.Memory.WearLeveler = name
		if err := c.Validate(); err != nil {
			t.Errorf("leveler %q rejected: %v", name, err)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := Default()
	c.Run.Seed = 12345
	c.Memory.Device.ExpoFactor = 2.5
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Config
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(c, back) {
		t.Errorf("round trip changed config:\n got %+v\nwant %+v", back, c)
	}
}

func TestCacheSets(t *testing.T) {
	c := Default()
	if got := c.Caches.L3.Sets(); got != 2048 {
		t.Errorf("L3 sets = %d, want 2048 (2MB/16way/64B)", got)
	}
	if got := c.Caches.L1.Sets(); got != 128 {
		t.Errorf("L1 sets = %d, want 128", got)
	}
}

func TestCanonicalHash(t *testing.T) {
	a, err := Default().Hash()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Default().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("equal configs hash differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Errorf("hash length = %d, want 64 hex chars", len(a))
	}
	c := Default()
	c.Run.Seed = 7
	h, err := c.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h == a {
		t.Error("changing the seed did not change the hash")
	}

	// The canonical form survives a JSON round trip: decode + re-hash
	// yields the same identity.
	raw, err := c.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	h2, err := back.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Errorf("hash not stable across round trip: %s vs %s", h2, h)
	}
}
