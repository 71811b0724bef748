package runtime_test

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync/atomic"
	"testing"

	"silentspan/internal/bfs"
	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
	"silentspan/internal/switching"
)

// TestParallelFor: every index is handed to exactly one body call, each
// call covers one run of at most shard indices starting on a shard
// boundary, and one worker makes one call over the whole range — at the
// sizes around one shard, where the worker count flips.
func TestParallelFor(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	const shard = 8
	for _, procs := range []int{1, 4} {
		goruntime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, shard - 1, shard, shard + 1, 5*shard + 3} {
			seen := make([]atomic.Int32, n)
			var calls atomic.Int32
			runtime.ParallelFor(n, shard, func(lo, hi int) {
				calls.Add(1)
				if procs > 1 && n > shard && (lo%shard != 0 || hi-lo > shard) {
					t.Errorf("procs=%d n=%d: run [%d,%d) is not one shard", procs, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Errorf("procs=%d n=%d: index %d visited %d times", procs, n, i, c)
				}
			}
			want := int32(min(n, 1))
			if procs > 1 {
				want = int32((n + shard - 1) / shard)
			}
			if got := calls.Load(); got != want {
				t.Errorf("procs=%d n=%d: %d body calls, want %d", procs, n, got, want)
			}
		}
	}
}

// write is one StateListener notification.
type write struct {
	v        graph.NodeID
	old, new runtime.State
}

// drainRun runs one seeded adversarial network under sched for at most
// 10n moves, silent or not, and returns its result, every register write
// in notification order, and the final register file. InitArbitrary
// dirties every node, so at n = 3000 the first drain alone spans twelve
// shards, and the early synchronous moves dirty thousands more.
func drainRun(t *testing.T, g *graph.Graph, alg runtime.Algorithm, sched runtime.Scheduler, seed int64) (runtime.Result, []write, []runtime.State) {
	t.Helper()
	net, err := runtime.NewNetwork(g, alg)
	if err != nil {
		t.Fatal(err)
	}
	net.InitArbitrary(rand.New(rand.NewSource(seed)))
	var writes []write
	net.AddStateListener(func(v graph.NodeID, old, new runtime.State) {
		writes = append(writes, write{v, old, new})
	})
	res, err := net.Run(sched, 10*g.N())
	if err != nil {
		t.Fatal(err)
	}
	regs := make([]runtime.State, 0, g.N())
	for _, v := range g.Nodes() {
		regs = append(regs, net.State(v))
	}
	return res, writes, regs
}

// sameState compares two registers, either of which may be nil.
func sameState(a, b runtime.State) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Equal(b)
}

// TestDrainParallelismIndependent: a drain longer than one shard runs
// its δ evaluations on GOMAXPROCS workers, so the engine must compute
// the same execution with one worker — which drains every worklist in
// one pass — as with four sharing the three-phase drain: the Result,
// every register write in order, and every final register, for each
// algorithm, on a random graph and a grid, under the synchronous daemon
// and a seeded distributed one.
func TestDrainParallelismIndependent(t *testing.T) {
	const n = 3000
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	graphs := map[string]*graph.Graph{
		"random": graph.RandomConnected(n, 8/float64(n), rand.New(rand.NewSource(1))),
		"grid":   graph.Grid(50, 60),
	}
	algs := []runtime.Algorithm{spanning.Algorithm{}, bfs.Algorithm{}, switching.Algorithm{}}
	scheds := map[string]func() runtime.Scheduler{
		"synchronous":  runtime.Synchronous,
		"randomsubset": func() runtime.Scheduler { return runtime.RandomSubset(rand.New(rand.NewSource(3))) },
	}
	for gname, g := range graphs {
		for _, alg := range algs {
			for sname, sched := range scheds {
				t.Run(fmt.Sprintf("%s/%s/%s", gname, alg.Name(), sname), func(t *testing.T) {
					goruntime.GOMAXPROCS(1)
					r1, w1, s1 := drainRun(t, g, alg, sched(), 2)
					goruntime.GOMAXPROCS(4)
					r4, w4, s4 := drainRun(t, g, alg, sched(), 2)
					if r1 != r4 {
						t.Errorf("result %+v with 1 worker, %+v with 4", r1, r4)
					}
					if len(w1) != len(w4) {
						t.Fatalf("%d register writes with 1 worker, %d with 4", len(w1), len(w4))
					}
					for k := range w1 {
						a, b := w1[k], w4[k]
						if a.v != b.v || !sameState(a.old, b.old) || !sameState(a.new, b.new) {
							t.Fatalf("write %d: node %d %v -> %v with 1 worker, node %d %v -> %v with 4",
								k, a.v, a.old, a.new, b.v, b.old, b.new)
						}
					}
					for k := range s1 {
						if !sameState(s1[k], s4[k]) {
							t.Fatalf("node %d ends at %v with 1 worker, %v with 4", g.Nodes()[k], s1[k], s4[k])
						}
					}
				})
			}
		}
	}
}

// TestDrainSmallPathAllocatesNothing: a drain of at most one shard runs
// δ on the caller's goroutine and builds no closure, so re-examining a
// silent 64-node network allocates nothing. (A grid keeps every degree
// under switching's on-stack neighbourhood bound.)
func TestDrainSmallPathAllocatesNothing(t *testing.T) {
	const n = 64
	g := graph.Grid(8, 8)
	for _, alg := range []runtime.Algorithm{spanning.Algorithm{}, bfs.Algorithm{}, switching.Algorithm{}} {
		net, err := runtime.NewNetwork(g, alg)
		if err != nil {
			t.Fatal(err)
		}
		net.InitArbitrary(rand.New(rand.NewSource(6)))
		if res, err := net.Run(runtime.Synchronous(), 100*n); err != nil || !res.Silent {
			t.Fatalf("%s: not silent: %+v, %v", alg.Name(), res, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { runtime.Redrain(net) }); allocs != 0 {
			t.Errorf("%s: %.1f allocations per drain of a silent %d-node network, want 0", alg.Name(), allocs, n)
		}
	}
}
