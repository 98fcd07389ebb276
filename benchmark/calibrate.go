package main

import (
	"container/heap"
	"time"
)

// The host this benchmark was built on is a shared 2 vCPU VM: the same
// pass, busy 100% of its wall time on one P, took up to twice as long while
// the neighbours were busy, in episodes lasting from seconds to many
// minutes, with no steal time shown inside the VM. Medians over the passes
// of one run cannot remove an episode that covers the whole run. So the
// parent process times a fixed calibration loop between passes, and the
// host times it reports are scaled by calibrationRefS / (median loop time
// around the pass): host seconds as they read when the loop takes
// calibrationRefS. The loop runs in the parent, which executes no
// simulation, so no change to the simulator moves it; the raw times are
// printed beside the factor on the "# pass" lines.

// calibrationRefS sets the unit of the scaled host times: about the loop's
// time on that host when quiet (Intel Xeon at 2.1 GHz, Go 1.24).
// Comparisons between runs do not depend on its value.
const calibrationRefS = 0.045

// calibrationSamples is how many loops run between two passes.
const calibrationSamples = 3

// calibrate times a fixed amount of work shaped like the simulator's hot
// paths: an event-queue churn, pointer chasing over freshly allocated nodes
// (allocation and GC), and a goroutine ping-pong (scheduler handoff).
func calibrate() float64 {
	start := time.Now()
	h := &floatHeap{}
	x := uint64(88172645463325252)
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	for i := 0; i < 4096; i++ {
		heap.Push(h, next())
	}
	for i := 0; i < 150000; i++ {
		t := heap.Pop(h).(float64)
		heap.Push(h, t+next())
	}

	type node struct {
		next *node
		v    [6]int64
	}
	var head *node
	for i := 0; i < 50000; i++ {
		head = &node{next: head, v: [6]int64{int64(i)}}
	}
	var sum int64
	for r := 0; r < 8; r++ {
		for n := head; n != nil; n = n.next {
			sum += n.v[0]
		}
	}
	calSink = sum

	ping, pong := make(chan int), make(chan int)
	go func() {
		defer close(pong)
		for v := range ping {
			pong <- v + 1
		}
	}()
	for i := 0; i < 20000; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong
	return time.Since(start).Seconds()
}

// calibrateN returns n loop times.
func calibrateN(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = calibrate()
	}
	return xs
}

// calSink keeps the pointer chase from being optimized away.
var calSink int64

type floatHeap []float64

func (h floatHeap) Len() int           { return len(h) }
func (h floatHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h floatHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *floatHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *floatHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}
