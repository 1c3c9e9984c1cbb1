package wear

// This file validates the Start-Gap efficiency assumption (§IV-C sets
// Ratio_quota = 0.9 because "Start-Gap may introduce slightly extra
// wear"; §V's lifetime model assumes near-uniform within-bank wear).
// Full-system windows are far too short for the gap to complete even one
// rotation, so the validation drives the remapper directly with synthetic
// write streams for many rotations and measures the achieved leveling.

// LevelingResult reports measured wear distribution for one pattern.
type LevelingResult struct {
	// Writes is the demand writes applied.
	Writes uint64
	// GapWrites is the extra migration writes Start-Gap performed.
	GapWrites uint64
	// MaxBlockWear / MeanBlockWear are in writes per physical block.
	MaxBlockWear  float64
	MeanBlockWear float64
	// Efficiency is mean/max — 1.0 is ideal leveling; the §IV-C
	// assumption is ≥ 0.9. (The lifetime of the bank is set by its
	// most-worn block, so efficiency is exactly the achieved fraction
	// of the ideal lifetime.)
	Efficiency float64
	// Overhead is migration writes per demand write (≈ 1/psi).
	Overhead float64
}

// MeasureLeveling applies `writes` demand writes to a bank of `blocks`
// logical blocks under Start-Gap with the given psi. pattern returns the
// logical block of each write. Physical wear (including migration
// writes) is tracked exactly.
func MeasureLeveling(blocks int64, psi int, writes uint64, pattern func() int64) LevelingResult {
	sg := NewStartGap(blocks, psi)
	wearPerBlock := make([]uint64, blocks+1)
	var gapWrites uint64
	for i := uint64(0); i < writes; i++ {
		wearPerBlock[sg.Map(pattern())]++
		if moved, rewritten := sg.OnWrite(); moved && rewritten >= 0 {
			wearPerBlock[rewritten]++
			gapWrites++
		}
	}
	var max, sum uint64
	for _, w := range wearPerBlock {
		if w > max {
			max = w
		}
		sum += w
	}
	res := LevelingResult{
		Writes:       writes,
		GapWrites:    gapWrites,
		MaxBlockWear: float64(max),
		// The bank has blocks+1 physical blocks but only `blocks` hold
		// data; wear capacity spans all of them.
		MeanBlockWear: float64(sum) / float64(blocks+1),
	}
	if max > 0 {
		res.Efficiency = res.MeanBlockWear / res.MaxBlockWear
	}
	if writes > 0 {
		res.Overhead = float64(gapWrites) / float64(writes)
	}
	return res
}
