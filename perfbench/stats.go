package main

import (
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// Set-up takes a few milliseconds or less, and its wall time on a
// shared machine follows wakeup and system-call latency more than the
// program. setup_s is therefore the CPU time one set-up takes on the
// thread that runs it: the median of setupSamples samples, each the
// mean of set-ups repeated until they have used setupSampleTime of CPU
// between them. The thread's own CPU time leaves out the garbage
// collector's background workers, whose share varies with how idle the
// other cores are; allocation still counts through GC assists.
const (
	setupSamples    = 11
	setupSampleTime = 50 * time.Millisecond
)

// setupTimes returns setupSamples such samples of once, in seconds per
// set-up. once must do its work on the calling goroutine.
func setupTimes(once func() error) ([]float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var samples []float64
	for len(samples) < setupSamples {
		var total time.Duration
		n := 0
		for total < setupSampleTime {
			cpu0 := threadCPUTime()
			if err := once(); err != nil {
				return nil, err
			}
			total += threadCPUTime() - cpu0
			n++
		}
		samples = append(samples, total.Seconds()/float64(n))
	}
	return samples, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer idle on the workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
