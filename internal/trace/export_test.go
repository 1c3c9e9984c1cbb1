package trace

import (
	"io"

	"mellow/internal/rng"
)

// SwapNewZipfShape replaces the hot-set shape builder for tests outside
// the package and returns a function restoring the original.
func SwapNewZipfShape(f func(n uint64, theta float64) *rng.ZipfShape) (restore func()) {
	orig := newZipfShape
	newZipfShape = f
	return func() { newZipfShape = orig }
}

// WriteOps exports trace records in the textual format.
func WriteOps(w io.Writer, ops []Op) error {
	return encode(w, len(ops), func(i int) Op { return ops[i] })
}
