package main

import (
	"math"
	"math/rand"
	"slices"
	"syscall"
	"time"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// clock is the harness's monotonic time base; now is nanoseconds since it.
var clock = time.Now()

func now() int64 { return int64(time.Since(clock)) }

// cpuNanos is the process's user+system CPU time: every goroutine,
// in-process servers and the garbage collector included.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// quantile returns the q-quantile of vs by linear interpolation; vs is
// sorted in place. An empty sample reads 0.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	pos := q * float64(len(vs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(vs)-1)
	return vs[lo] + (vs[hi]-vs[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(slices.Clone(vs), 0.5) }

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
