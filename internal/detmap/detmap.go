// Package detmap provides deterministic iteration helpers for maps.
//
// Go randomizes map iteration order per run, so any Report bytes, plan
// text, wire encoding or log line derived from a bare `for range m`
// differs between two runs of the same seed — exactly the class of
// nondeterminism the serial/parallel equivalence batteries exist to
// catch, and the one the ampvet `detmap` analyzer rejects statically.
// Iterating SortedKeys(m) instead pins the order to the key ordering,
// which is engine- and run-independent.
package detmap

import (
	"cmp"
	"slices"
)

// SortedKeys returns m's keys in ascending order. The returned slice
// is freshly allocated (nil for an empty map); iterating it yields a
// deterministic order for any run, seed, engine and Go release.
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	if len(m) == 0 {
		return nil
	}
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// SortedKeysFunc returns m's keys ordered by the given less function,
// for key types that are not cmp.Ordered (structs, pointers with an
// externally defined order).
func SortedKeysFunc[M ~map[K]V, K comparable, V any](m M, less func(a, b K) bool) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b K) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
	return keys
}
