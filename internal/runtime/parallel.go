package runtime

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
)

// drainShard is the run of dirty nodes a drain worker claims per bump of
// the shared cursor, and the longest worklist drain keeps on the
// caller's goroutine. One δ evaluation costs a few hundred nanoseconds,
// so a run of 256 is tens of microseconds of work: the atomic add and a
// goroutine start are noise against it. The per-move drains of the
// central daemon and of small graphs — a handful of nodes each — never
// reach it.
const drainShard = 256

// ParallelFor calls body over [0, n) in runs of shard consecutive
// indices, body(lo, hi) once per run. Runs are claimed through one
// atomic cursor by min(GOMAXPROCS, ⌈n/shard⌉) workers, the caller being
// one of them; with one worker no goroutine starts and body runs once,
// over [0, n). It returns when every run is done. Which worker ran which
// run is unobservable as long as body writes only state owned by its
// indices.
func ParallelFor(n, shard int, body func(lo, hi int)) {
	workers := min(goruntime.GOMAXPROCS(0), (n+shard-1)/shard)
	if workers <= 1 {
		if n > 0 {
			body(0, n)
		}
		return
	}
	var cursor atomic.Int64
	work := func() {
		for {
			lo := int(cursor.Add(int64(shard))) - shard
			if lo >= n {
				return
			}
			body(lo, min(lo+shard, n))
		}
	}
	var wg sync.WaitGroup
	for w := workers; w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
