// Package config centralizes the paper's tabulated parameters: the
// Footprint Cache tag-array sizes and latencies of Table IV and the cache
// size sweeps of Figures 5–8.
package config

import (
	"fmt"
	"math"
	"strings"
)

// FCTagPoint is one column of Table IV.
type FCTagPoint struct {
	CacheBytes uint64
	// TagMB is the SRAM tag-array size in megabytes.
	TagMB float64
	// LatencyCycles is the (conservatively estimated) tag lookup latency.
	LatencyCycles uint64
}

// fcTagTable is Table IV verbatim.
var fcTagTable = []FCTagPoint{
	{128 << 20, 0.8, 6},
	{256 << 20, 1.58, 9},
	{512 << 20, 3.12, 11},
	{1 << 30, 6.2, 16},
	{2 << 30, 12.5, 25},
	{4 << 30, 25, 36},
	{8 << 30, 50, 48},
}

// FCTagTable returns Table IV.
func FCTagTable() []FCTagPoint {
	out := make([]FCTagPoint, len(fcTagTable))
	copy(out, fcTagTable)
	return out
}

// FCTagLatency returns the Footprint Cache tag latency for the given
// capacity, using the next tabulated size for intermediate values.
func FCTagLatency(cacheBytes uint64) uint64 {
	for _, p := range fcTagTable {
		if cacheBytes <= p.CacheBytes {
			return p.LatencyCycles
		}
	}
	return fcTagTable[len(fcTagTable)-1].LatencyCycles
}

// CloudSuiteSizes is the Figure 6/7 cache-size sweep for the CloudSuite
// workloads.
func CloudSuiteSizes() []uint64 {
	return []uint64{128 << 20, 256 << 20, 512 << 20, 1 << 30}
}

// TPCHSizes is the Figure 8 sweep for TPC-H.
func TPCHSizes() []uint64 {
	return []uint64{1 << 30, 2 << 30, 4 << 30, 8 << 30}
}

// ParseSize is SizeLabel's inverse for command-line flags: it understands
// "128MB", "1GB", "8g", "64m", "4KB" and plain byte counts.
func ParseSize(s string) (uint64, error) {
	t := strings.ToUpper(strings.TrimSpace(s))
	mult := uint64(1)
	switch {
	case strings.HasSuffix(t, "GB"), strings.HasSuffix(t, "G"):
		mult = 1 << 30
		t = strings.TrimSuffix(strings.TrimSuffix(t, "GB"), "G")
	case strings.HasSuffix(t, "MB"), strings.HasSuffix(t, "M"):
		mult = 1 << 20
		t = strings.TrimSuffix(strings.TrimSuffix(t, "MB"), "M")
	case strings.HasSuffix(t, "KB"), strings.HasSuffix(t, "K"):
		mult = 1 << 10
		t = strings.TrimSuffix(strings.TrimSuffix(t, "KB"), "K")
	}
	var v uint64
	for _, c := range t {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad size %q", s)
		}
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, fmt.Errorf("size %q overflows", s)
		}
		v = v*10 + d
	}
	if v == 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	if v > math.MaxUint64/mult {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	return v * mult, nil
}

// SizeLabel formats a capacity the way the figures do.
func SizeLabel(b uint64) string {
	switch {
	case b >= 1<<30 && b%(1<<30) == 0:
		return itoa(b>>30) + "GB"
	case b >= 1<<20:
		return itoa(b>>20) + "MB"
	default:
		return itoa(b) + "B"
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
