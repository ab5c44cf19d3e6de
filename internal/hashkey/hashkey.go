// Package hashkey provides allocation-free 64-bit hashing of small integer
// vectors. It exists so the data plane (relation instances, guard FD
// indexes, chase buckets) can key hash tables by compact binary content
// instead of fmt-built "%d|" strings: a key is a uint64 accumulated with
// Mix, and the owning table resolves the (rare) collisions by comparing the
// underlying vectors. Hashing is a pure function of the values — no seed,
// no scratch buffer, no allocation — so concurrent readers may hash freely.
//
// The mixer is the splitmix64 finalizer (Steele et al., "Fast splittable
// pseudorandom number generators"), which passes avalanche tests; combined
// with a golden-ratio stride per element it gives 64-bit keys whose
// collision probability over realistic table sizes is negligible. Callers
// must still verify equality on lookup: correctness never depends on hash
// quality, only performance does.
package hashkey

import "math/bits"

// Init is the accumulator's starting value. Seeding with a non-zero
// constant distinguishes the empty vector from a vector of zeros.
const Init uint64 = 0x9e3779b97f4a7c15

// Mix folds one element into the accumulator.
func Mix(h, x uint64) uint64 {
	h ^= x * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Int64s hashes a vector of int64-like values.
func Int64s[T ~int64](vs []T) uint64 {
	h := Init
	for _, v := range vs {
		h = Mix(h, uint64(v))
	}
	return h
}

// Int32s hashes a vector of int32-like values.
func Int32s[T ~int32](vs []T) uint64 {
	h := Init
	for _, v := range vs {
		h = Mix(h, uint64(uint32(v)))
	}
	return h
}

// Ints hashes a vector of ints.
func Ints(vs []int) uint64 {
	h := Init
	for _, v := range vs {
		h = Mix(h, uint64(v))
	}
	return h
}

// Str folds a string, or the same bytes as a slice, into the accumulator,
// eight bytes at a time, with the length mixed in so prefixes don't collide
// trivially ("ab","c" vs "a","bc" hash differently when each element is
// folded with Str). It allocates nothing, so routing tiers may hash request
// values freely, names still in the request's bytes included.
func Str[S ~string | ~[]byte](h uint64, s S) uint64 {
	h = Mix(h, uint64(len(s)))
	for len(s) >= 8 {
		var x uint64
		for i := 0; i < 8; i++ {
			x |= uint64(s[i]) << (8 * i)
		}
		h = Mix(h, x)
		s = s[8:]
	}
	if len(s) > 0 {
		var x uint64
		for i := 0; i < len(s); i++ {
			x |= uint64(s[i]) << (8 * i)
		}
		h = Mix(h, x)
	}
	return h
}

// Strs hashes a vector of strings — the content hash a cluster router uses
// to place a tuple by its key-attribute values (value names, not interned
// ids, so every node computes the same hash).
func Strs(vs []string) uint64 {
	h := Init
	for _, v := range vs {
		h = Str(h, v)
	}
	return h
}

// Range maps a hash onto one of n equal-width ranges of the 64-bit hash
// space, for hash-range partitioning: range i covers [i*2^64/n, (i+1)*2^64/n).
// It is the fixed-point multiply-shift (Lemire's fast range reduction), so
// the mapping is order-preserving in h and needs no division. n must be
// positive; Range(h, 1) is always 0.
func Range(h uint64, n int) int {
	hi, _ := bits.Mul64(h, uint64(n))
	return int(hi)
}
