package experiments

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"

	"mellow/internal/core"
	"mellow/internal/engine"
	"mellow/internal/metrics"
	"mellow/internal/xtrace"
)

// The memo keeps each finished simulation as one packed []byte and
// unpacks it into fresh values on a hit. The packing is exact and walks
// the value types by reflection, so a field added to a result type is
// packed without further code:
//
//   - integers are varints (signed ones zigzag-encoded);
//   - float64s are their raw IEEE bits, so NaN payloads, ±Inf and −0
//     survive the round trip;
//   - strings and slices are length-prefixed, a slice's length shifted
//     up by one so that 0 marks nil and a nil slice stays distinct from
//     an empty one;
//   - arrays and structs pack their elements and fields in order;
//   - a type implementing encoding.BinaryMarshaler and
//     BinaryUnmarshaler (stats.Histogram, whose fields are unexported)
//     packs its own bytes behind their length.
//
// Pointers, maps, interfaces, float32 and the other kinds no memo value
// holds are refused when the codec is built, and TestMemoCodecs fails
// on them. The unpacker does not check its input: an entry's bytes come
// only from packEntry in the same process and never change once stored.

// codec packs and unpacks the values of one type.
type codec struct {
	pack   func(p *packer, v reflect.Value)
	unpack func(u *unpacker, v reflect.Value)
}

// packer accumulates packed bytes and the first error.
type packer struct {
	b   []byte
	err error
}

// unpacker consumes packed bytes.
type unpacker struct {
	b []byte
	// str is the last string unpacked: an epoch series repeats its few
	// phase names, so each repeat reuses one allocation.
	str string
}

func (u *unpacker) uvarint() uint64 {
	x, n := binary.Uvarint(u.b)
	u.b = u.b[n:]
	return x
}

func (u *unpacker) varint() int64 {
	x, n := binary.Varint(u.b)
	u.b = u.b[n:]
	return x
}

// next consumes n bytes.
func (u *unpacker) next(n uint64) []byte {
	s := u.b[:n:n]
	u.b = u.b[n:]
	return s
}

var (
	binaryMarshaler   = reflect.TypeFor[encoding.BinaryMarshaler]()
	binaryUnmarshaler = reflect.TypeFor[encoding.BinaryUnmarshaler]()
)

// codecFor builds t's codec, or fails on a kind the packer does not
// carry.
func codecFor(t reflect.Type) (codec, error) {
	if t.Implements(binaryMarshaler) && reflect.PointerTo(t).Implements(binaryUnmarshaler) {
		return codec{
			pack: func(p *packer, v reflect.Value) {
				b, err := v.Interface().(encoding.BinaryMarshaler).MarshalBinary()
				if err != nil && p.err == nil {
					p.err = err
				}
				p.b = append(binary.AppendUvarint(p.b, uint64(len(b))), b...)
			},
			unpack: func(u *unpacker, v reflect.Value) {
				b := u.next(u.uvarint())
				if err := v.Addr().Interface().(encoding.BinaryUnmarshaler).UnmarshalBinary(b); err != nil {
					panic(fmt.Sprintf("experiments: memo entry: %v", err))
				}
			},
		}, nil
	}
	switch t.Kind() {
	case reflect.Bool:
		return codec{
			pack: func(p *packer, v reflect.Value) {
				p.b = append(p.b, boolByte(v.Bool()))
			},
			unpack: func(u *unpacker, v reflect.Value) {
				v.SetBool(u.next(1)[0] == 1)
			},
		}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return codec{
			pack: func(p *packer, v reflect.Value) {
				p.b = binary.AppendVarint(p.b, v.Int())
			},
			unpack: func(u *unpacker, v reflect.Value) {
				v.SetInt(u.varint())
			},
		}, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return codec{
			pack: func(p *packer, v reflect.Value) {
				p.b = binary.AppendUvarint(p.b, v.Uint())
			},
			unpack: func(u *unpacker, v reflect.Value) {
				v.SetUint(u.uvarint())
			},
		}, nil
	case reflect.Float64:
		return codec{
			pack: func(p *packer, v reflect.Value) {
				p.b = binary.LittleEndian.AppendUint64(p.b, math.Float64bits(v.Float()))
			},
			unpack: func(u *unpacker, v reflect.Value) {
				v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(u.next(8))))
			},
		}, nil
	case reflect.String:
		return codec{
			pack: func(p *packer, v reflect.Value) {
				p.b = appendField(p.b, v.String())
			},
			unpack: func(u *unpacker, v reflect.Value) {
				b := u.next(u.uvarint())
				if string(b) != u.str {
					u.str = string(b)
				}
				v.SetString(u.str)
			},
		}, nil
	case reflect.Array:
		elem, err := codecFor(t.Elem())
		if err != nil {
			return codec{}, err
		}
		return codec{
			pack: func(p *packer, v reflect.Value) {
				for i := 0; i < v.Len(); i++ {
					elem.pack(p, v.Index(i))
				}
			},
			unpack: func(u *unpacker, v reflect.Value) {
				for i := 0; i < v.Len(); i++ {
					elem.unpack(u, v.Index(i))
				}
			},
		}, nil
	case reflect.Slice:
		elem, err := codecFor(t.Elem())
		if err != nil {
			return codec{}, err
		}
		return codec{
			pack: func(p *packer, v reflect.Value) {
				if v.IsNil() {
					p.b = append(p.b, 0)
					return
				}
				p.b = binary.AppendUvarint(p.b, uint64(v.Len())+1)
				for i := 0; i < v.Len(); i++ {
					elem.pack(p, v.Index(i))
				}
			},
			unpack: func(u *unpacker, v reflect.Value) {
				switch n := int(u.uvarint()); n {
				case 0:
					v.SetZero()
				case 1:
					v.Set(reflect.MakeSlice(t, 0, 0))
				default:
					// Grow allocates only the (zeroed) elements, where
					// MakeSlice would allocate a slice header too.
					v.Grow(n - 1)
					v.SetLen(n - 1)
					for i := 0; i < n-1; i++ {
						elem.unpack(u, v.Index(i))
					}
				}
			},
		}, nil
	case reflect.Struct:
		fields := make([]codec, t.NumField())
		for i := range fields {
			f := t.Field(i)
			if !f.IsExported() {
				return codec{}, fmt.Errorf("experiments: cannot pack %v: field %s is unexported", t, f.Name)
			}
			c, err := codecFor(f.Type)
			if err != nil {
				return codec{}, fmt.Errorf("%w (field %v.%s)", err, t, f.Name)
			}
			fields[i] = c
		}
		return codec{
			pack: func(p *packer, v reflect.Value) {
				for i, f := range fields {
					f.pack(p, v.Field(i))
				}
			},
			unpack: func(u *unpacker, v reflect.Value) {
				for i, f := range fields {
					f.unpack(u, v.Field(i))
				}
			},
		}, nil
	}
	return codec{}, fmt.Errorf("experiments: cannot pack %v: kind %v", t, t.Kind())
}

// entryCodecs are the codecs of the three packed parts of a memo entry.
type entryCodecs struct {
	result, series, mix codec
}

// memoCodecs builds the entry codecs on first use, so a process that
// never memoises does not pay for them at start-up. If a result type
// gains a field the packer cannot carry, it fails: TestMemoCodecs fails
// on that, and the memo stores nothing, so every run simulates rather
// than failing.
var memoCodecs = sync.OnceValues(func() (entryCodecs, error) {
	var c entryCodecs
	var errs [3]error
	c.result, errs[0] = codecFor(reflect.TypeFor[core.Result]())
	c.series, errs[1] = codecFor(reflect.TypeFor[[]engine.EpochSample]())
	c.mix, errs[2] = codecFor(reflect.TypeFor[core.MixResult]())
	return c, errors.Join(errs[:]...)
})

// entry is one memoised simulation as the memo keeps it: the result
// (or a mix's result) and the epoch series of an observed run, packed
// into one []byte, with the rare metrics snapshot and timeline
// beside it as pointers. The result's workload and policy labels stay
// outside the bytes, so a hit unpacks them without allocating. Entries
// are immutable once stored.
type entry struct {
	workload, policy string
	packed           []byte
	met              *metrics.Snapshot
	trace            *xtrace.SimTrace
}

// Leading byte of an entry's packed bytes, which then hold the result
// and the series.
const (
	packedRun byte = iota // a Result
	packedMix             // a MixResult
)

// packEntry packs one finished simulation. The entry shares no memory
// with ins but its metrics snapshot and timeline.
func packEntry(ins *Instrumented) (*entry, error) {
	codecs, err := memoCodecs()
	if err != nil {
		return nil, err
	}
	e := &entry{met: ins.Metrics, trace: ins.Trace}
	var p packer
	if ins.Mix != nil {
		p.b = append(p.b, packedMix)
		codecs.mix.pack(&p, reflect.ValueOf(ins.Mix).Elem())
	} else {
		r := ins.Result
		e.workload, e.policy = r.Workload, r.Policy
		r.Workload, r.Policy = "", ""
		p.b = append(p.b, packedRun)
		codecs.result.pack(&p, reflect.ValueOf(&r).Elem())
	}
	codecs.series.pack(&p, reflect.ValueOf(&ins.Series).Elem())
	if p.err != nil {
		return nil, p.err
	}
	e.packed = append([]byte(nil), p.b...)
	return e, nil
}

// unpackers recycles unpackers: the codecs' function values make one
// escape, and a hit should not pay an allocation for it.
var unpackers = sync.Pool{New: func() any { return new(unpacker) }}

// unpack fills the zero *ins with fresh copies of the entry's values;
// only the metrics snapshot and timeline are shared with the memo.
func (e *entry) unpack(ins *Instrumented) {
	codecs, _ := memoCodecs() // an entry exists only if they built
	u := unpackers.Get().(*unpacker)
	defer func() { *u = unpacker{}; unpackers.Put(u) }()
	u.b = e.packed
	if u.next(1)[0] == packedMix {
		ins.Mix = new(core.MixResult)
		codecs.mix.unpack(u, reflect.ValueOf(ins.Mix).Elem())
	} else {
		codecs.result.unpack(u, reflect.ValueOf(&ins.Result).Elem())
		ins.Result.Workload, ins.Result.Policy = e.workload, e.policy
	}
	codecs.series.unpack(u, reflect.ValueOf(&ins.Series).Elem())
	ins.Metrics, ins.Trace = e.met, e.trace
}

// packCodecs caches the codecs Pack and Unpack build, by type.
var packCodecs sync.Map // reflect.Type → codec

func packCodec(t reflect.Type) (codec, error) {
	if c, ok := packCodecs.Load(t); ok {
		return c.(codec), nil
	}
	c, err := codecFor(t)
	if err != nil {
		return codec{}, err
	}
	packCodecs.Store(t, c)
	return c, nil
}

// Pack packs *v the way the memo packs its entries: exactly, and in a
// fraction of the bytes of v's JSON. It fails on a type that holds a
// kind the packer does not carry.
func Pack[T any](v *T) ([]byte, error) {
	c, err := packCodec(reflect.TypeFor[T]())
	if err != nil {
		return nil, err
	}
	var p packer
	c.pack(&p, reflect.ValueOf(v).Elem())
	if p.err != nil {
		return nil, p.err
	}
	return append([]byte(nil), p.b...), nil
}

// Unpack fills the zero *v with fresh copies of the values Pack packed
// into b, which must be bytes Pack made of a T.
func Unpack[T any](b []byte, v *T) {
	c, _ := packCodec(reflect.TypeFor[T]()) // b exists only if Pack built it
	u := unpackers.Get().(*unpacker)
	defer func() { *u = unpacker{}; unpackers.Put(u) }()
	u.b = b
	c.unpack(u, reflect.ValueOf(v).Elem())
}
