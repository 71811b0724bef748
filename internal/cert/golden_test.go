package cert

// Golden-trace regression wall: for every algorithm × a deterministic
// scheduler trio, the exact execution trace — every scheduler choice,
// every register write, every churn op, every phase summary — on a
// fixed seeded graph under a fixed churn schedule is committed to
// testdata/golden/. Any engine refactor that silently changes
// semantics (activation order, round accounting, sanitize behavior,
// slot recycling) fails loudly as a trace diff instead of passing on
// weakened assertions. Regenerate with:
//
//	go test ./internal/cert -run Golden -update
//
// and review the diff like any other semantic change.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"silentspan/internal/graph"
	"silentspan/internal/routing"
	"silentspan/internal/runtime"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// goldenSchedulers is the deterministic trio the traces pin: the two
// scheduler extremes plus the hostile unfair daemon.
func goldenSchedulers() []SchedulerSpec {
	var out []SchedulerSpec
	for _, s := range Schedulers() {
		switch s.Name {
		case "central", "synchronous", "adversarial-unfair":
			out = append(out, s)
		}
	}
	return out
}

// traceScheduler logs every choice of the wrapped daemon.
type traceScheduler struct {
	inner runtime.Scheduler
	w     *strings.Builder
	net   *runtime.Network
}

func (t *traceScheduler) BindNetwork(net *runtime.Network) {
	t.net = net
	if na, ok := t.inner.(runtime.NetworkAware); ok {
		na.BindNetwork(net)
	}
}

func (t *traceScheduler) Choose(enabled *runtime.EnabledSet, buf []graph.NodeID) []graph.NodeID {
	out := t.inner.Choose(enabled, buf)
	fmt.Fprintf(t.w, "choose %v\n", out)
	return out
}

func goldenTrace(t *testing.T, a routing.Algo, spec SchedulerSpec) string {
	t.Helper()
	const seed = 42
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomConnected(8, 0.3, rng)
	var w strings.Builder
	fmt.Fprintf(&w, "algorithm %s scheduler %s graph n=%d m=%d\n", a, spec.Name, g.N(), g.M())

	net, _, err := routing.BringUp(g, a, spec.New(seed), 200_000, rand.New(rand.NewSource(seed+1)), referenceTree(a))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range g.Nodes() {
		fmt.Fprintf(&w, "init %d = %s\n", v, net.State(v))
	}
	net.AddStateListener(func(v graph.NodeID, old, new runtime.State) {
		if new == nil {
			fmt.Fprintf(&w, "clear %d\n", v)
			return
		}
		fmt.Fprintf(&w, "write %d <- %s\n", v, new)
	})

	ops := GenerateChurnSchedule(g, 6, seed+2)
	crng := rand.New(rand.NewSource(seed + 3))
	sched := &traceScheduler{inner: spec.New(seed + 4), w: &w}
	for oi, op := range ops {
		fmt.Fprintf(&w, "-- op %d: %s\n", oi, op)
		if _, err := ApplyChurnOp(NetworkTarget{net}, op, crng); err != nil {
			t.Fatalf("op %d (%s): %v", oi, op, err)
		}
		res, err := net.Run(sched, net.Moves()+100_000)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&w, "-- silent=%v moves=%d rounds=%d bits=%d\n",
			res.Silent, res.Moves, res.Rounds, net.MaxRegisterBits())
	}
	for _, v := range g.Nodes() {
		fmt.Fprintf(&w, "final %d = %s\n", v, net.State(v))
	}
	return w.String()
}

func TestGoldenChurnTraces(t *testing.T) {
	for _, a := range routing.AllAlgos() {
		for _, spec := range goldenSchedulers() {
			name := fmt.Sprintf("%s_%s", a, spec.Name)
			t.Run(name, func(t *testing.T) {
				got := goldenTrace(t, a, spec)
				path := filepath.Join("testdata", "golden", name+".trace")
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden trace (regenerate with -update): %v", err)
				}
				if got != string(want) {
					t.Fatalf("trace diverges from %s.\nThis means engine semantics changed. If intended, regenerate with -update and review the diff.\n%s",
						path, firstDiff(got, string(want)))
				}
			})
		}
	}
}

// firstDiff renders the first differing line with context.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			lo := i - 3
			if lo < 0 {
				lo = 0
			}
			hi := i + 1
			if hi > len(gl) {
				hi = len(gl)
			}
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q\ncontext:\n  %s",
				i+1, g, w, strings.Join(gl[lo:hi], "\n  "))
		}
	}
	return "traces equal-length prefix; lengths differ"
}
