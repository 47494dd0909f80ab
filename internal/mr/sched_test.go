package mr

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"clydesdale/internal/obs"
	"clydesdale/internal/records"
)

// schedScript drives a taskSched the way runPhase does, without goroutines:
// the test decides which running attempt finishes next and how, and the
// script records every assignment in the order the scheduler made it.
type schedScript struct {
	t       *testing.T
	s       *taskSched
	now     time.Time
	running []assignment
	log     []string // "m-3#1@n0 local", one entry per assignment
	wins    map[int]int
}

func nodeNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("n%d", i)
	}
	return out
}

func newSchedScript(t *testing.T, nodes, capNode, maxAttempts int, locations [][]string) *schedScript {
	return &schedScript{
		t:    t,
		s:    newTaskSched("m", nodeNames(nodes), capNode, maxAttempts, locations),
		now:  time.Unix(0, 0),
		wins: map[int]int{},
	}
}

// take records the assignments an event produced and checks what must hold
// of every one: the node is alive and within its cap.
func (sc *schedScript) take(as []assignment) []string {
	var got []string
	for _, a := range as {
		place := [...]string{"local", "no-holder", "delayed"}[a.place]
		got = append(got, fmt.Sprintf("%s#%d@%s %s", sc.s.taskID(a.task), a.attempt, sc.s.nodes[a.node].name, place))
		if sc.s.alive != nil && !sc.s.alive(a.node) {
			sc.t.Errorf("%s assigned to dead node %s", sc.s.taskID(a.task), sc.s.nodes[a.node].name)
		}
	}
	sc.running = append(sc.running, as...)
	sc.log = append(sc.log, got...)
	perNode := make([]int, len(sc.s.nodes))
	for _, a := range sc.running {
		if perNode[a.node]++; perNode[a.node] > sc.s.capNode {
			sc.t.Errorf("node %s runs %d attempts, cap %d", sc.s.nodes[a.node].name, perNode[a.node], sc.s.capNode)
		}
	}
	if len(sc.running) != sc.s.totalRun {
		sc.t.Errorf("scheduler counts %d running attempts, script holds %d", sc.s.totalRun, len(sc.running))
	}
	return got
}

func (sc *schedScript) start() []string {
	return sc.take(sc.s.start(sc.now))
}

// finish completes the i-th running attempt (in assignment order) and
// returns what the dispatch after it assigned.
func (sc *schedScript) finish(i int, err error) []string {
	a := sc.running[i]
	sc.running = append(sc.running[:i], sc.running[i+1:]...)
	sc.now = sc.now.Add(time.Millisecond)
	won, next := sc.s.complete(a, err, sc.now)
	if won {
		sc.wins[a.task]++
	}
	return sc.take(next)
}

// finishTask completes the oldest running attempt of the task.
func (sc *schedScript) finishTask(task int, err error) []string {
	for i, a := range sc.running {
		if a.task == task {
			return sc.finish(i, err)
		}
	}
	sc.t.Fatalf("no running attempt of task %d", task)
	return nil
}

func (sc *schedScript) kill(node int, alive []bool) []string {
	alive[node] = false
	_, next := sc.s.nodeDied(sc.s.nodes[node].name, sc.now)
	return sc.take(next)
}

func sameList(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got  %v\n want %v", what, got, want)
	}
}

// hostsOf gives task t the single holder n(t mod nodes).
func hostsOf(tasks, nodes int) [][]string {
	out := make([][]string, tasks)
	for t := range out {
		out[t] = []string{fmt.Sprintf("n%d", t%nodes)}
	}
	return out
}

// TestTaskSchedCompletesAll runs 40 single-holder tasks over 4 nodes x 3
// slots and checks that every task completes exactly once, on its holder.
func TestTaskSchedCompletesAll(t *testing.T) {
	const total, nodes, slots = 40, 4, 3
	sc := newSchedScript(t, nodes, slots, 4, hostsOf(total, nodes))
	sc.start()
	rng := rand.New(rand.NewSource(1))
	for len(sc.running) > 0 {
		sc.finish(rng.Intn(len(sc.running)), nil)
	}
	if err := sc.s.result("map"); err != nil {
		t.Fatal(err)
	}
	if len(sc.wins) != total {
		t.Fatalf("completed %d of %d tasks", len(sc.wins), total)
	}
	for task, n := range sc.wins {
		if n != 1 {
			t.Errorf("task %d won %d times", task, n)
		}
	}
	if len(sc.log) != total {
		t.Errorf("%d attempts for %d tasks", len(sc.log), total)
	}
}

// TestTaskSchedRetriesElsewhere checks a failing task is retried, avoiding
// the node it failed on when possible.
func TestTaskSchedRetriesElsewhere(t *testing.T) {
	sc := newSchedScript(t, 2, 1, 4, make([][]string, 1))
	sameList(t, "first attempt", sc.start(), []string{"m-0#1@n0 no-holder"})
	// A different node picks it up, in the dispatch the failure causes.
	sameList(t, "retry", sc.finish(0, errors.New("boom")), []string{"m-0#2@n1 no-holder"})
	sc.finish(0, nil)
	if err := sc.s.result("map"); err != nil {
		t.Fatal(err)
	}
}

// TestTaskSchedAbortsAfterMaxAttempts verifies the attempt budget. With one
// live node the retry has nowhere else to go and returns to it.
func TestTaskSchedAbortsAfterMaxAttempts(t *testing.T) {
	sc := newSchedScript(t, 1, 1, 2, make([][]string, 1))
	sameList(t, "first attempt", sc.start(), []string{"m-0#1@n0 no-holder"})
	sameList(t, "second attempt", sc.finish(0, errors.New("always fails")), []string{"m-0#2@n0 no-holder"})
	if next := sc.finish(0, errors.New("always fails")); len(next) != 0 {
		t.Errorf("scheduler assigned %v after the abort", next)
	}
	if err := sc.s.result("map"); err == nil {
		t.Error("expected abort error")
	}
}

// TestTaskSchedCapEnforced ensures per-node concurrency stays within the
// capacity cap (take checks it after every event) and that the cap is used.
func TestTaskSchedCapEnforced(t *testing.T) {
	const total, cap = 30, 2
	sc := newSchedScript(t, 1, cap, 4, make([][]string, total))
	if got := sc.start(); len(got) != cap {
		t.Errorf("first dispatch assigned %v, want %d attempts", got, cap)
	}
	for len(sc.running) > 0 {
		sc.finish(len(sc.running)-1, nil)
	}
	if err := sc.s.result("map"); err != nil {
		t.Fatal(err)
	}
	if len(sc.wins) != total {
		t.Errorf("completed %d of %d tasks", len(sc.wins), total)
	}
}

// TestDispatchDealsLocationFreeTasks: tasks without locations (every reduce
// task, every MemoryInput split without hosts) are all assigned by the first
// dispatch, one per node before any node gets a second.
func TestDispatchDealsLocationFreeTasks(t *testing.T) {
	sc := newSchedScript(t, 4, 1, 4, make([][]string, 4))
	sameList(t, "4 tasks, 4 nodes x 1 slot", sc.start(),
		[]string{"m-0#1@n0 no-holder", "m-1#1@n1 no-holder", "m-2#1@n2 no-holder", "m-3#1@n3 no-holder"})

	sc = newSchedScript(t, 4, 2, 4, make([][]string, 6))
	sameList(t, "6 tasks, 4 nodes x 2 slots", sc.start(), []string{
		"m-0#1@n0 no-holder", "m-1#1@n1 no-holder", "m-2#1@n2 no-holder", "m-3#1@n3 no-holder",
		"m-4#1@n0 no-holder", "m-5#1@n1 no-holder"})
}

// TestDispatchKeepsBalancedSplitsLocal: when every node holds its share of
// the splits and the nodes keep pace (each finishes one attempt per round,
// in any order within the round), no split leaves its holder: a node that
// frees a slot finds its next split before anyone has waited out the delay.
func TestDispatchKeepsBalancedSplitsLocal(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		sc := newSchedScript(t, 4, 1, 4, hostsOf(12, 4))
		sameList(t, "first wave", sc.start(),
			[]string{"m-0#1@n0 local", "m-1#1@n1 local", "m-2#1@n2 local", "m-3#1@n3 local"})
		rng := rand.New(rand.NewSource(seed))
		for len(sc.running) > 0 {
			for _, n := range rng.Perm(4) {
				for i, a := range sc.running {
					if a.node == n {
						sc.finish(i, nil)
						break
					}
				}
			}
		}
		if len(sc.log) != 12 {
			t.Errorf("seed %d: %d attempts, want 12", seed, len(sc.log))
		}
		for _, a := range sc.log {
			var task, attempt, node int
			var place string
			if _, err := fmt.Sscanf(a, "m-%d#%d@n%d %s", &task, &attempt, &node, &place); err != nil {
				t.Fatal(err)
			}
			if node != task%4 || place != "local" {
				t.Errorf("seed %d: %s left its holder n%d", seed, a, task%4)
			}
		}
	}
}

// TestDispatchPrefersPrimaryHolder: among the splits a node holds it takes
// those that list it first before those that list it later, so replicated
// splits packed by primary host are worked off by their primaries and a node
// helps with a neighbour's share only once its own is done.
func TestDispatchPrefersPrimaryHolder(t *testing.T) {
	locations := [][]string{{"n0", "n1"}, {"n0", "n1"}, {"n0", "n1"}, {"n1", "n0"}, {"n1", "n0"}}
	sc := newSchedScript(t, 2, 1, 4, locations)
	sameList(t, "start", sc.start(), []string{"m-0#1@n0 local", "m-3#1@n1 local"})
	sameList(t, "m-3 done", sc.finishTask(3, nil), []string{"m-4#1@n1 local"})
	sameList(t, "m-4 done: n1 is out of its own", sc.finishTask(4, nil), []string{"m-1#1@n1 local"})
	sameList(t, "m-0 done", sc.finishTask(0, nil), []string{"m-2#1@n0 local"})
}

// TestDispatchLocalityDelay: a task whose only holder is dead is taken at
// once; a task whose holder is alive but full is taken by another node only
// after that node has passed it up in delayTolerance dispatches.
func TestDispatchLocalityDelay(t *testing.T) {
	locations := [][]string{{"n0"}, {"n0"}, {"n0"}, {"n0"}, {"n0"}, {"n3"}}
	sc := newSchedScript(t, 4, 1, 4, locations)
	alive := []bool{true, true, true, false}
	sc.s.alive = func(n int) bool { return alive[n] }

	// n0 takes its first split; n1 takes the dead n3's split at once; n2 has
	// a free slot and passes up n0's queue (round 1 for n2).
	sameList(t, "start", sc.start(), []string{"m-0#1@n0 local", "m-5#1@n1 no-holder"})
	// n1 frees up: rounds 1 for n1, 2 for n2.
	sameList(t, "m-5 done", sc.finishTask(5, nil), nil)
	// n0 moves on to its next split: rounds 2 for n1, 3 for n2.
	sameList(t, "m-0 done", sc.finishTask(0, nil), []string{"m-1#1@n0 local"})
	// n2 has passed delayTolerance rounds and takes the lowest split n0 does
	// not start itself; n1 (round 3) still waits.
	sameList(t, "m-1 done", sc.finishTask(1, nil), []string{"m-2#1@n0 local", "m-3#1@n2 delayed"})
	sameList(t, "m-2 done", sc.finishTask(2, nil), []string{"m-4#1@n0 local"})
	sc.finishTask(3, nil)
	sc.finishTask(4, nil)
	if err := sc.s.result("map"); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchRoutesRetryOffFailedNode is the regression test for retries
// handed straight back to the node they failed on: m-3 fails on its primary
// holder and its second attempt runs on another holder, still data-local.
func TestDispatchRoutesRetryOffFailedNode(t *testing.T) {
	locations := make([][]string, 4)
	for i := range locations {
		locations[i] = []string{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", (i+1)%4), fmt.Sprintf("n%d", (i+2)%4)}
	}
	sc := newSchedScript(t, 4, 2, 4, locations)
	sameList(t, "start", sc.start(),
		[]string{"m-0#1@n0 local", "m-1#1@n1 local", "m-2#1@n2 local", "m-3#1@n3 local"})
	sameList(t, "m-3 fails on n3", sc.finishTask(3, errors.New("bad disk")), []string{"m-3#2@n0 local"})
	// And again: n0 is now the node kept off; of the other holders n1 comes
	// first in the walk.
	sameList(t, "m-3 fails on n0", sc.finishTask(3, errors.New("bad disk")), []string{"m-3#3@n1 local"})

	// A task whose only holder failed it goes to another node at once,
	// remote although its holder is alive.
	sc = newSchedScript(t, 2, 1, 4, [][]string{{"n0"}})
	sameList(t, "start", sc.start(), []string{"m-0#1@n0 local"})
	sameList(t, "sole holder fails", sc.finish(0, errors.New("boom")), []string{"m-0#2@n1 delayed"})
}

// TestDispatchNodeDeath: a dead node's slots take nothing, its in-flight
// tasks go back on the queue only under eager requeue, and they are taken at
// once when no other node holds them.
func TestDispatchNodeDeath(t *testing.T) {
	for _, eager := range []bool{true, false} {
		sc := newSchedScript(t, 3, 1, 4, hostsOf(3, 3))
		alive := []bool{true, true, true}
		sc.s.alive = func(n int) bool { return alive[n] }
		sc.s.eagerRequeue = eager
		sameList(t, "start", sc.start(), []string{"m-0#1@n0 local", "m-1#1@n1 local", "m-2#1@n2 local"})
		sameList(t, "m-0 done", sc.finishTask(0, nil), nil)
		got := sc.kill(1, alive)
		if eager {
			sameList(t, "eager: n1 dies", got, []string{"m-1#2@n0 no-holder"})
			// The zombie attempt fails later; its replacement decides.
			sameList(t, "zombie fails", sc.finish(1, errors.New("node down")), nil)
		} else {
			sameList(t, "lazy: n1 dies", got, nil)
			sameList(t, "doomed attempt fails", sc.finishTask(1, errors.New("node down")), []string{"m-1#2@n0 no-holder"})
		}
		for len(sc.running) > 0 {
			sc.finish(0, nil)
		}
		if err := sc.s.result("map"); err != nil {
			t.Errorf("eager=%v: %v", eager, err)
		}
	}
}

// TestDispatchSpeculation: a backup starts only when nothing is pending, on
// a node other than the original's, once per task.
func TestDispatchSpeculation(t *testing.T) {
	sc := newSchedScript(t, 2, 1, 4, make([][]string, 3))
	sc.s.speculative = true
	sameList(t, "start", sc.start(), []string{"m-0#1@n0 no-holder", "m-1#1@n1 no-holder"})
	sameList(t, "m-1 done, m-2 pending", sc.finishTask(1, nil), []string{"m-2#1@n1 no-holder"})
	sameList(t, "m-2 done, nothing pending", sc.finishTask(2, nil), []string{"m-0#2@n1 no-holder"})
	if sc.s.specLaunched != 1 {
		t.Errorf("specLaunched = %d, want 1", sc.s.specLaunched)
	}
	// The backup wins; the original's late result is ignored.
	sameList(t, "backup done", sc.finish(1, nil), nil)
	sameList(t, "original done", sc.finish(0, nil), nil)
	if sc.wins[0] != 1 {
		t.Errorf("m-0 won %d times, want 1", sc.wins[0])
	}
	if err := sc.s.result("map"); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchCancel: a canceled phase assigns nothing further and reports
// the cause once its running attempts have drained.
func TestDispatchCancel(t *testing.T) {
	sc := newSchedScript(t, 2, 1, 4, make([][]string, 5))
	sc.start()
	cause := errors.New("canceled")
	sc.s.cancel(cause)
	sc.s.cancel(errors.New("second cause"))
	for len(sc.running) > 0 {
		sameList(t, "after cancel", sc.finish(0, nil), nil)
	}
	if err := sc.s.result("map"); err != cause {
		t.Errorf("result = %v, want the first cancel cause", err)
	}
}

// randomSchedRun plays one random script (localities, caps, failures, node
// deaths, finish order all drawn from the seed) and returns the assignment
// log. It fails the test if the script violates the progress property: with
// no attempt running the phase must be done, aborted, or out of live nodes,
// never waiting on a task nobody will take.
func randomSchedRun(t *testing.T, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	nodes, capNode := 1+rng.Intn(5), 1+rng.Intn(3)
	total, maxAttempts := rng.Intn(25), 1+rng.Intn(4)
	locations := make([][]string, total)
	for i := range locations {
		for k := rng.Intn(4); k > 0; k-- {
			// n5 and n6 are hosts outside the phase's node list.
			locations[i] = append(locations[i], fmt.Sprintf("n%d", rng.Intn(7)))
		}
	}
	sc := newSchedScript(t, nodes, capNode, maxAttempts, locations)
	alive := make([]bool, nodes)
	for i := range alive {
		alive[i] = true
	}
	sc.s.alive = func(n int) bool { return alive[n] }
	sc.s.speculative = rng.Intn(2) == 0
	sc.s.eagerRequeue = rng.Intn(2) == 0
	failEvery := 2 + rng.Intn(8)

	sc.start()
	for step := 0; len(sc.running) > 0; step++ {
		if step > 100*(total+1) {
			t.Fatalf("seed %d: still running after %d events", seed, step)
		}
		if n := rng.Intn(nodes); alive[n] && rng.Intn(12) == 0 {
			sc.kill(n, alive)
			continue
		}
		i := rng.Intn(len(sc.running))
		var err error
		if a := sc.running[i]; !alive[a.node] {
			err = errors.New("node down")
		} else if rng.Intn(failEvery) == 0 {
			err = errors.New("injected")
		}
		sc.finish(i, err)
	}

	live := 0
	for _, a := range alive {
		if a {
			live++
		}
	}
	err := sc.s.result("map")
	switch {
	case err == nil:
		for task := 0; task < total; task++ {
			if sc.wins[task] != 1 {
				t.Errorf("seed %d: task %d won %d times", seed, task, sc.wins[task])
			}
		}
	case sc.s.aborted != nil:
	case live == 0:
	default:
		t.Errorf("seed %d: stuck with %d live nodes and nothing running: %v (pending %v)", seed, live, err, sc.s.pending)
	}
	for task, n := range sc.wins {
		if n > 1 {
			t.Errorf("seed %d: task %d won %d times", seed, task, n)
		}
	}
	return sc.log
}

// TestTaskSchedProgressQuick is the progress property over random scripts.
func TestTaskSchedProgressQuick(t *testing.T) {
	f := func(seed int64) bool {
		randomSchedRun(t, seed)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestTaskSchedDeterministic: the same script gives the same assignments,
// attempt for attempt (no map iteration order, no clock, anywhere in it).
func TestTaskSchedDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		first := randomSchedRun(t, seed)
		for rep := 0; rep < 3; rep++ {
			if again := randomSchedRun(t, seed); !reflect.DeepEqual(first, again) {
				t.Fatalf("seed %d: run %d differs:\n%v\n%v", seed, rep, first, again)
			}
		}
	}
}

// TestRemoteMapsByCause holds the placement counters and the per-phase queue
// waits through the engine: a balanced local job runs nothing remotely, and
// a job whose splits have no hosts runs every map "no live holder".
func TestRemoteMapsByCause(t *testing.T) {
	for _, tc := range []struct {
		name            string
		hosts           func(i int) []string
		local, noHolder int64
	}{
		{"balanced-local", func(i int) []string { return []string{fmt.Sprintf("node-%d", i%3)} }, 6, 0},
		{"no-hosts", nil, 0, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(3)
			reg := obs.NewRegistry()
			e.SetMetrics(reg)
			splits := wordSplits(tc.hosts, []string{"a"}, []string{"b"}, []string{"c"}, []string{"d"}, []string{"e"}, []string{"f"})
			res, err := e.Submit(context.Background(), wordCountJob(splits, &MemoryOutput{}, 2))
			if err != nil {
				t.Fatal(err)
			}
			c := res.Counters
			if got := c.Get(CtrDataLocalMaps); got != tc.local {
				t.Errorf("%s = %d, want %d", CtrDataLocalMaps, got, tc.local)
			}
			if got := c.Get(CtrRemoteMapsNoHolder); got != tc.noHolder {
				t.Errorf("%s = %d, want %d", CtrRemoteMapsNoHolder, got, tc.noHolder)
			}
			if got := c.Get(CtrRemoteMapsDelayed); got != 0 {
				t.Errorf("%s = %d, want 0", CtrRemoteMapsDelayed, got)
			}
			if sum := c.Get(CtrRemoteMapsNoHolder) + c.Get(CtrRemoteMapsDelayed); sum != c.Get(CtrRemoteMaps) {
				t.Errorf("causes sum to %d, %s = %d", sum, CtrRemoteMaps, c.Get(CtrRemoteMaps))
			}
			maps, reduces := reg.Histogram("mr.map.queue_wait_ns").Count(), reg.Histogram("mr.reduce.queue_wait_ns").Count()
			if maps != c.Get(CtrMapTasks) || reduces != c.Get(CtrReduceTasks) {
				t.Errorf("queue waits observed: %d map, %d reduce; attempts: %d, %d",
					maps, reduces, c.Get(CtrMapTasks), c.Get(CtrReduceTasks))
			}
			if all := reg.Histogram("mr.queue_wait_ns").Count(); all != maps+reduces {
				t.Errorf("mr.queue_wait_ns has %d samples, the phases %d", all, maps+reduces)
			}
		})
	}
}

// TestWordCountMatchesInMemoryQuick is a property test: for random word
// multisets, the full MapReduce word count agrees with a plain in-memory
// count, across random split arrangements and reducer counts.
func TestWordCountMatchesInMemoryQuick(t *testing.T) {
	e := newTestEngine(3)
	vocab := []string{"a", "b", "c", "dd", "eee", "ffff"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nWords := rng.Intn(120) + 1
		nSplits := rng.Intn(4) + 1
		reducers := rng.Intn(3) + 1
		want := map[string]int64{}
		splits := make([]*MemorySplit, nSplits)
		for i := range splits {
			splits[i] = &MemorySplit{}
		}
		for i := 0; i < nWords; i++ {
			w := vocab[rng.Intn(len(vocab))]
			want[w]++
			s := splits[rng.Intn(nSplits)]
			s.Pairs = append(s.Pairs, KV{Value: records.Make(wordSchema, records.Str(w))})
		}
		out := &MemoryOutput{}
		if _, err := e.Submit(context.Background(), wordCountJob(splits, out, reducers)); err != nil {
			t.Log(err)
			return false
		}
		got := countsFrom(out)
		if len(got) != len(want) {
			return false
		}
		for w, n := range want {
			if got[w] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestHashPartitionerCoversAllPartitions sanity-checks key routing.
func TestHashPartitionerCoversAllPartitions(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		k := records.Make(wordSchema, records.Str(fmt.Sprintf("key-%d", i)))
		p := HashPartitioner(k, 7)
		if p < 0 || p >= 7 {
			t.Fatalf("partition %d out of range", p)
		}
		seen[p] = true
	}
	if len(seen) != 7 {
		t.Errorf("only %d of 7 partitions used", len(seen))
	}
}

// TestPartitionerOutOfRangeFails ensures a broken partitioner is caught.
func TestPartitionerOutOfRangeFails(t *testing.T) {
	e := newTestEngine(1)
	job := wordCountJob(wordSplits(nil, []string{"a"}), &MemoryOutput{}, 2)
	job.Partitioner = func(records.Record, int) int { return 99 }
	if _, err := e.Submit(context.Background(), job); err == nil {
		t.Error("expected partitioner range error")
	}
}
