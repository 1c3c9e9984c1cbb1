package experiments

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/bits"
	"reflect"
	"strconv"
	"testing"

	"mellow/internal/core"
	"mellow/internal/engine"
	"mellow/internal/policy"
	"mellow/internal/stats"
	"mellow/internal/trace"
)

// TestMemoCodecs: the memo's value types pack, and the kinds a packed
// byte string cannot carry are refused when the codec is built.
func TestMemoCodecs(t *testing.T) {
	if _, err := memoCodecs(); err != nil {
		t.Fatalf("a memo value type does not pack: %v", err)
	}
	type unexported struct{ A, b int }
	type nested struct{ R struct{ P *int } }
	for _, typ := range []reflect.Type{
		reflect.TypeFor[*int](),
		reflect.TypeFor[map[string]int](),
		reflect.TypeFor[any](),
		reflect.TypeFor[func()](),
		reflect.TypeFor[float32](),
		reflect.TypeFor[complex128](),
		reflect.TypeFor[unexported](),
		reflect.TypeFor[nested](),
	} {
		if _, err := codecFor(typ); err == nil {
			t.Errorf("%v: codec built, want a refusal", typ)
		}
	}
}

// source supplies the values fill sets: the bits of each leaf and the
// length of each slice (-1 for nil).
type source struct {
	leaf func() uint64
	len  func() int
}

// counter is a source whose leaves are distinct and nonzero, drawn from
// *n, and whose slices get two elements. A packer that dropped or
// swapped a field, including one added after this test was written,
// then fails the round trip.
func counter(n *uint64) source {
	return source{
		leaf: func() uint64 { *n++; return *n },
		len:  func() int { return 2 },
	}
}

// fill sets every leaf of v from src: a bool is whether its bits are
// nonzero, an int their negation, a uint their rotation (so a counter's
// small values pack into multi-byte varints), a float64 the bits
// themselves.
func fill(v reflect.Value, src source) {
	if v.Type() == reflect.TypeFor[stats.Histogram]() {
		buckets := make([]uint64, stats.NumBuckets)
		for i := range buckets {
			buckets[i] = src.leaf()
		}
		v.Set(reflect.ValueOf(stats.FromBuckets(buckets, src.leaf())))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(src.leaf() != 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-int64(src.leaf()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(bits.RotateLeft64(src.leaf(), 40))
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(src.leaf()))
	case reflect.String:
		v.SetString("s" + strconv.FormatUint(src.leaf(), 10))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), src)
		}
	case reflect.Slice:
		n := src.len()
		if n < 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fill(v.Index(i), src)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), src)
		}
	default:
		panic("fill: unexpected kind " + v.Kind().String())
	}
}

// roundTrip packs ins and unpacks it into a fresh value.
func roundTrip(t *testing.T, ins Instrumented) Instrumented {
	t.Helper()
	e, err := packEntry(&ins)
	if err != nil {
		t.Fatal(err)
	}
	var got Instrumented
	e.unpack(&got)
	return got
}

// TestPackRoundTrip: a result and a mix result, each with an epoch
// series and every field set, unpack equal to what was packed.
func TestPackRoundTrip(t *testing.T) {
	var n uint64
	var run Instrumented
	fill(reflect.ValueOf(&run.Result).Elem(), counter(&n))
	fill(reflect.ValueOf(&run.Series).Elem(), counter(&n))
	if got := roundTrip(t, run); !reflect.DeepEqual(got, run) {
		t.Errorf("run round trip:\n got %+v\nwant %+v", got, run)
	}
	mix := Instrumented{Mix: new(core.MixResult)}
	fill(reflect.ValueOf(mix.Mix).Elem(), counter(&n))
	fill(reflect.ValueOf(&mix.Series).Elem(), counter(&n))
	got := roundTrip(t, mix)
	if !reflect.DeepEqual(got, mix) {
		t.Errorf("mix round trip:\n got %+v\nwant %+v", got, mix)
	}
	if got.Mix == mix.Mix || &got.Mix.Cores[0] == &mix.Mix.Cores[0] {
		t.Error("the unpacked mix shares memory with the packed one")
	}
}

// TestPackExactValues: floats keep their bits (NaN payloads, ±Inf, −0),
// a nil slice stays nil and an empty one stays empty.
func TestPackExactValues(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	var ins Instrumented
	ins.Result.IPC = nan
	ins.Result.MPKI = math.Copysign(0, -1)
	ins.Result.Mem.LifetimeYears = math.Inf(1)
	ins.Result.Mem.MaxBankDamage = math.Inf(-1)
	ins.Result.Mem.BankUtilization = []float64{}
	ins.Series = []engine.EpochSample{{Progress: nan}, {}}
	got := roundTrip(t, ins)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"IPC", got.Result.IPC, nan},
		{"MPKI", got.Result.MPKI, ins.Result.MPKI},
		{"LifetimeYears", got.Result.Mem.LifetimeYears, math.Inf(1)},
		{"MaxBankDamage", got.Result.Mem.MaxBankDamage, math.Inf(-1)},
		{"Series[0].Progress", got.Series[0].Progress, nan},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s = %#x, want %#x", c.name, math.Float64bits(c.got), math.Float64bits(c.want))
		}
	}
	if u := got.Result.Mem.BankUtilization; u == nil || len(u) != 0 {
		t.Errorf("empty BankUtilization unpacked as %#v", u)
	}
	if got.Result.Cache != ins.Result.Cache || len(got.Series) != 2 {
		t.Errorf("unpacked %+v", got)
	}
	ins.Result.Mem.BankUtilization, ins.Series = nil, nil
	if got := roundTrip(t, ins); got.Result.Mem.BankUtilization != nil || got.Series != nil {
		t.Errorf("nil slices unpacked as %#v, %#v", got.Result.Mem.BankUtilization, got.Series)
	}
}

// TestMemoHitMatchesRun: a memo hit returns what the simulation that
// filled the memo returned, for a plain, an observed and a mix cell, in
// private copies: two hits share no result memory.
func TestMemoHitMatchesRun(t *testing.T) {
	ResetCache()
	defer ResetCache()
	stream, err := trace.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	gups, err := trace.ByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(801)
	cases := []struct {
		name string
		cell Cell
		ob   Observation
	}{
		{"plain", Cell{Cfg: cfg, Spec: policy.Norm(), Workload: stream}, Observation{}},
		{"observed", Cell{Cfg: cfg, Spec: policy.Norm(), Workload: gups},
			Observation{Epoch: 10_000, Metrics: true, Trace: true}},
		{"mix", Cell{Cfg: cfg, Spec: policy.Norm(), Mix: []trace.Workload{stream, gups}}, Observation{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fresh, err := Run(context.Background(), c.cell, c.ob)
			if err != nil {
				t.Fatal(err)
			}
			misses := CacheSnapshot().Misses
			hit, err := Run(context.Background(), c.cell, c.ob)
			if err != nil {
				t.Fatal(err)
			}
			again, err := Run(context.Background(), c.cell, c.ob)
			if err != nil {
				t.Fatal(err)
			}
			if CacheSnapshot().Misses != misses {
				t.Fatal("a repeated run simulated again")
			}
			if !reflect.DeepEqual(hit, fresh) {
				t.Errorf("hit:\n%+v\nfresh run:\n%+v", hit, fresh)
			}
			if c.ob.Epoch > 0 && (len(hit.Series) == 0 || &hit.Series[0] == &again.Series[0]) {
				t.Errorf("hits share their series (%d samples)", len(hit.Series))
			}
			if c.ob.Metrics && (hit.Metrics == nil || hit.Trace == nil) {
				t.Error("an instrumented hit lost its metrics or timeline")
			}
			if hit.Mix != nil && hit.Mix == again.Mix {
				t.Error("hits share their mix result")
			}
			if u := hit.Result.Mem.BankUtilization; len(u) > 0 && &u[0] == &again.Result.Mem.BankUtilization[0] {
				t.Error("hits share their bank utilisation")
			}
		})
	}
}

// FuzzMemoPack: a result and epoch series, or a mix result, whose
// leaves and slice lengths come from the fuzzed bytes packs, unpacks and
// packs again into the same bytes, so no value is lost or changed on the
// way: NaN payloads, ±Inf, −0 and nil versus empty slices included.
func FuzzMemoPack(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0xff, 2, 3, 0x80, 0, 0, 0, 0, 0, 0xf8, 0x7f, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(bytes.Repeat([]byte{0xa5, 0x5a, 7, 0, 1}, 200))
	f.Fuzz(func(t *testing.T, b []byte) {
		// A leaf takes 0-8 bytes, its count given by the byte before
		// them; once the input runs out every draw is zero.
		leaf := func() uint64 {
			var w [8]byte
			if len(b) > 0 {
				k := int(b[0] % 9)
				b = b[1:]
				b = b[copy(w[:k], b):]
			}
			return binary.LittleEndian.Uint64(w[:])
		}
		src := source{leaf: leaf, len: func() int { return int(leaf()%4) - 1 }}
		var ins Instrumented
		if leaf()%2 == 1 {
			ins.Mix = new(core.MixResult)
			fill(reflect.ValueOf(ins.Mix).Elem(), src)
		} else {
			fill(reflect.ValueOf(&ins.Result).Elem(), src)
		}
		fill(reflect.ValueOf(&ins.Series).Elem(), src)
		e, err := packEntry(&ins)
		if err != nil {
			t.Fatal(err)
		}
		var got Instrumented
		e.unpack(&got)
		if got.Result.Workload != ins.Result.Workload || got.Result.Policy != ins.Result.Policy {
			t.Fatalf("labels unpacked as %q, %q", got.Result.Workload, got.Result.Policy)
		}
		again, err := packEntry(&got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e.packed, again.packed) {
			t.Fatalf("repacking changed the bytes:\n%x\n%x", e.packed, again.packed)
		}
	})
}
