// Package exp is the parallel experiment engine behind the paper's
// evaluation grids. The figures of Sections 3 and 5 are embarrassingly
// parallel products of (network config x traffic pattern x injection rate x
// seed); exp fans such a slice of independent experiment points out over a
// bounded worker pool and hands the results back in submission order, so
// callers observe exactly what a serial loop would have produced.
//
// Determinism is the design centre: experiment functions must derive all
// randomness from their own point (typically via DeriveSeed of a base seed
// and the point index), never from shared state or scheduling order. Under
// that contract, Run yields bit-identical results for any worker count,
// which the test suite pins down by comparing workers=1 against workers=8
// runs.
package exp

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures one engine invocation.
type Options struct {
	// Workers is the pool size; values below 1 mean runtime.GOMAXPROCS(0)
	// (one worker per available core).
	Workers int
	// Progress, when non-nil, is called after each point completes with
	// the number of completed points and the total submitted so far.
	// Calls are serialised by the engine; the callback needs no locking
	// of its own, but it runs on worker goroutines and must not block
	// for long.
	Progress func(done, total int)
}

// workers resolves the effective pool size.
func (o Options) workers() int {
	if o.Workers >= 1 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Mix64 is one step of splitmix64: it advances v by the golden-ratio
// increment and returns the finaliser's hash of the result. It is the
// repository's one stateless mixing function, so every seeded hash draws
// from the same generator as the per-point seeds.
func Mix64(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ v>>30) * 0xbf58476d1ce4e5b9
	v = (v ^ v>>27) * 0x94d049bb133111eb
	return v ^ v>>31
}

// DeriveSeed maps (base seed, point index) to a decorrelated per-point
// seed with Mix64. Points of one grid get seeds that are deterministic
// functions of their index alone, so a grid evaluated in parallel, in
// reverse, or resumed halfway sees the same random streams as a serial
// sweep. The mapping avoids returning 0 because several PRNGs treat a
// zero seed as degenerate.
func DeriveSeed(base int64, index uint64) int64 {
	z := Mix64(uint64(base) + 0x9e3779b97f4a7c15*index)
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return int64(z)
}

// Run evaluates fn over every item on a worker pool and returns the
// results in item order. fn receives the item's index and value; it must
// be safe for concurrent invocation and derive any randomness from its
// arguments only. A panicking fn is re-panicked on the caller's goroutine
// after the pool drains, so failures surface where the grid was launched.
func Run[T, R any](items []T, fn func(i int, item T) R, opt Options) []R {
	results := make([]R, len(items))
	if len(items) == 0 {
		return results
	}
	w := opt.workers()
	if w > len(items) {
		w = len(items)
	}
	if w == 1 {
		// Serial fast path: no goroutines, same results by contract.
		for i, it := range items {
			results[i] = fn(i, it)
			if opt.Progress != nil {
				opt.Progress(i+1, len(items))
			}
		}
		return results
	}

	var (
		next     atomic.Int64
		done     int
		panicked atomic.Value
		progress sync.Mutex
		wg       sync.WaitGroup
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) || panicked.Load() != nil {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, &poolPanic{val: r})
						}
					}()
					results[i] = fn(i, items[i])
				}()
				if opt.Progress != nil {
					progress.Lock()
					done++
					opt.Progress(done, len(items))
					progress.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.(*poolPanic).val)
	}
	return results
}

// poolPanic wraps a worker panic value for transport across goroutines.
type poolPanic struct{ val any }

// Logger returns a Progress callback that writes "label: done/total
// (elapsed)" lines to out, rate-limited to one line per interval (plus
// the final line). It is the standard progress reporter of the cmd/
// drivers; pass it to Options.Progress.
func Logger(out io.Writer, label string, interval time.Duration) func(done, total int) {
	start := time.Now()
	var mu sync.Mutex
	var last time.Time
	return func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if done < total && now.Sub(last) < interval {
			return
		}
		last = now
		fmt.Fprintf(out, "%s: %d/%d points (%.1fs elapsed)\n",
			label, done, total, now.Sub(start).Seconds())
	}
}
