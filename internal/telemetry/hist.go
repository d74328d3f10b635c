package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Hist is a fixed-bucket power-of-two histogram for the deterministic
// plane. Bucket k≥1 covers [2^(k-1), 2^k−1]; bucket 0 holds exact
// zeros. Observations are virtual-time or count quantities, never wall
// clock, so a Hist is byte-reproducible across runs and engines and may
// appear in Report output.
type Hist struct {
	N   uint64
	Sum uint64
	Max uint64
	B   [65]uint64
}

// Observe adds one sample.
func (h *Hist) Observe(v uint64) {
	h.N++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	h.B[bits.Len64(v)]++
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	h.N += o.N
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
	for i, n := range o.B {
		h.B[i] += n
	}
}

// bucketHi is the largest value bucket k can hold.
func bucketHi(k int) uint64 {
	if k == 0 {
		return 0
	}
	if k >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(k) - 1
}

// bucketLo is the smallest value bucket k can hold.
func bucketLo(k int) uint64 {
	if k == 0 {
		return 0
	}
	return 1 << uint(k-1)
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1): the
// top of the bucket where the cumulative count first reaches q·N.
func (h *Hist) Quantile(q float64) uint64 {
	if h.N == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(h.N)))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for k, n := range h.B {
		cum += n
		if cum >= need {
			hi := bucketHi(k)
			if hi > h.Max {
				hi = h.Max
			}
			return hi
		}
	}
	return h.Max
}

// String renders a compact deterministic summary:
// "n=12 mean=34 p50<=63 p99<=127 max=96".
func (h *Hist) String() string {
	if h.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%d p50<=%d p99<=%d max=%d",
		h.N, h.Sum/h.N, h.Quantile(0.50), h.Quantile(0.99), h.Max)
}

// Buckets renders the occupied buckets as "[lo,hi]:n" pairs — the
// long-form companion to String for tables and debug dumps.
func (h *Hist) Buckets() string {
	var sb strings.Builder
	for k, n := range h.B {
		if n == 0 {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "[%d,%d]:%d", bucketLo(k), bucketHi(k), n)
	}
	if sb.Len() == 0 {
		return "-"
	}
	return sb.String()
}
