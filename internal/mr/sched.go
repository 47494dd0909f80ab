package mr

import (
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// placement says where an attempt runs relative to its task's input.
type placement uint8

const (
	placeLocal    placement = iota // on a node that holds the input
	placeNoHolder                  // elsewhere: no live node holds it
	placeDelayed                   // elsewhere although a live node holds it
)

// placementOf classifies running a task on node, given the nodes holding its
// input and which of them are alive.
func placementOf[N comparable](holders []N, node N, alive func(N) bool) placement {
	place := placeNoHolder
	for _, h := range holders {
		if h == node {
			return placeLocal
		}
		if alive(h) {
			place = placeDelayed
		}
	}
	return place
}

// assignment is one attempt the scheduler has decided to start.
type assignment struct {
	task    int
	attempt int // 1-based number of this attempt of the task
	node    int // index into the scheduler's node list
	place   placement
	ready   time.Time // when the task became schedulable; its queue wait starts here
}

// delayTolerance is how many dispatch rounds a node with a free slot passes
// up a task whose holders are busy before it takes the task remotely.
const delayTolerance = 3

// taskSched assigns the tasks of one phase (map or reduce) to node slots. It
// is a state machine without goroutines, locks or clocks: start, complete,
// nodeDied and cancel are the events, each takes the time it happened at,
// and each but cancel ends in one dispatch that returns the attempts to
// launch. The caller serialises the events (runPhase feeds them from one
// goroutine); only a task's done flag is read from elsewhere.
//
// dispatch walks the live nodes that have a free slot in list order, one
// task per node per pass, until a pass assigns nothing. A node takes the
// lowest-numbered pending task it may take, by the first rule that yields
// one:
//
//  1. a task whose input the node holds, one that lists the node first
//     before one that lists it later (HDFS names the primary replica first
//     and multi-splits are packed by it, so each node works through its own
//     share before it helps with a neighbour's);
//  2. a task no eligible live node holds (no locations, or every holder
//     dead), at once: one per node per pass deals them round-robin;
//  3. a task whose eligible live holders are all at capacity, once the node
//     has passed up such a task in delayTolerance earlier dispatches (delay
//     scheduling, counted in events, never in time);
//  4. with nothing pending, a speculative backup of a task that has a single
//     attempt running on another node.
//
// A retry is kept off the node its last attempt ran on while any other node
// is alive: that node neither takes the task nor counts as one of its
// holders, so another holder takes it by rule 1 and, failing that, any other
// node by rule 2 or 3.
//
// Progress: a task still pending after a dispatch was passed over only by
// nodes at capacity and by nodes waiting out rule 3, which they do only
// while a holder of it is at capacity (a retry's last node passes it over
// too, but only while another node is alive, to which the same applies).
// Either way an attempt is running, and its completion is the next event.
// With nothing running every pending task is assigned, unless no node is
// alive.
type taskSched struct {
	kind        string // "m" or "r", for task IDs
	tasks       []schedTask
	nodes       []schedNode
	alive       func(node int) bool // nil: every node is alive
	capNode     int                 // concurrent attempts per node
	maxAttempts int

	// speculative allows rule 4. eagerRequeue lets nodeDied put a dead node's
	// in-flight tasks back on the queue at once instead of waiting for the
	// doomed attempts to fail. Both are only safe when task output is
	// buffered and committed first-wins (map tasks of jobs with reducers):
	// the zombie attempt and its replacement may otherwise both publish.
	speculative  bool
	eagerRequeue bool

	pending      []int // schedulable tasks, ascending
	nlive        int   // live nodes, as of this dispatch
	totalRun     int
	completed    int
	specLaunched int64
	aborted      error
}

type schedTask struct {
	holders  []int     // nodes that hold its input
	readyAt  time.Time // when it last became schedulable
	started  int       // attempts launched
	settled  int       // attempts that ended before the task was done
	active   int       // attempts in flight
	lastNode int       // node of its latest attempt, -1 before the first
	done     atomic.Bool
}

type schedNode struct {
	name     string
	running  int  // attempts in flight
	passed   int  // dispatches in which it passed up a rule-3 task
	declined bool // scratch: it passed one up in this dispatch
	live     bool // alive(), sampled once per dispatch
}

// newTaskSched builds the scheduler of a phase with one task per entry of
// locations (the hosts holding the task's input; hosts that are not in nodes
// are ignored).
func newTaskSched(kind string, nodes []string, capNode, maxAttempts int, locations [][]string) *taskSched {
	s := &taskSched{
		kind:        kind,
		tasks:       make([]schedTask, len(locations)),
		nodes:       make([]schedNode, len(nodes)),
		capNode:     capNode,
		maxAttempts: maxAttempts,
		pending:     make([]int, len(locations)),
	}
	index := make(map[string]int, len(nodes))
	for n, name := range nodes {
		s.nodes[n].name = name
		index[name] = n
	}
	for t, hosts := range locations {
		s.pending[t] = t
		s.tasks[t].lastNode = -1
		for _, h := range hosts {
			if n, ok := index[h]; ok {
				s.tasks[t].holders = append(s.tasks[t].holders, n)
			}
		}
	}
	return s
}

// start is the phase-start event: every task becomes schedulable at now.
func (s *taskSched) start(now time.Time) []assignment {
	for t := range s.tasks {
		s.tasks[t].readyAt = now
	}
	return s.dispatch()
}

// complete records a finished attempt; a failed task is requeued until its
// attempt budget is spent, which aborts the phase. It reports whether this
// attempt won the task: exactly one attempt per task does, so callers
// publish output, task reports and duration metrics once even when a
// speculative backup and the original finish together.
func (s *taskSched) complete(a assignment, err error, now time.Time) (won bool, next []assignment) {
	t := &s.tasks[a.task]
	s.nodes[a.node].running--
	s.totalRun--
	t.active--
	if !t.done.Load() {
		t.settled++
		switch {
		case err == nil:
			t.done.Store(true)
			s.completed++
			won = true
		case t.active > 0:
			// A sibling attempt is still running; it decides the task's fate.
		case t.settled >= s.maxAttempts:
			if s.aborted == nil {
				s.aborted = fmt.Errorf("task %s failed %d times, last: %w", s.taskID(a.task), t.settled, err)
			}
		default:
			s.requeue(a.task, now)
		}
	}
	return won, s.dispatch()
}

// nodeDied is the event of a node going down (alive already says so). With
// eager requeue its in-flight tasks go back on the queue; it returns how
// many did.
func (s *taskSched) nodeDied(node string, now time.Time) (requeued int, next []assignment) {
	if s.eagerRequeue {
		for t := range s.tasks {
			tk := &s.tasks[t]
			if tk.active > 0 && s.nodes[tk.lastNode].name == node && !tk.done.Load() && !s.isPending(t) {
				s.requeue(t, now)
				requeued++
			}
		}
	}
	return requeued, s.dispatch()
}

// cancel aborts the phase: nothing further is assigned. The first cause
// sticks.
func (s *taskSched) cancel(err error) {
	if s.aborted == nil {
		s.aborted = err
	}
}

// isDone reports whether an attempt already finished the task; in-flight
// attempts poll it (from their own goroutines) to abandon superseded work.
func (s *taskSched) isDone(t int) bool { return s.tasks[t].done.Load() }

// taskID names task t the way reports and spans do ("m-3", "r-0").
func (s *taskSched) taskID(t int) string { return s.kind + "-" + strconv.Itoa(t) }

func (s *taskSched) result(phase string) error {
	if s.aborted != nil {
		return s.aborted
	}
	if s.completed != len(s.tasks) {
		return fmt.Errorf("mr: %d of %d %s tasks completed (cluster lost?)", s.completed, len(s.tasks), phase)
	}
	return nil
}

func (s *taskSched) isPending(t int) bool {
	i := sort.SearchInts(s.pending, t)
	return i < len(s.pending) && s.pending[i] == t
}

func (s *taskSched) requeue(t int, now time.Time) {
	i := sort.SearchInts(s.pending, t)
	s.pending = append(s.pending, 0)
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = t
	s.tasks[t].readyAt = now
}

func (s *taskSched) dispatch() []assignment {
	if s.aborted != nil || (len(s.pending) == 0 && !s.speculative) {
		return nil
	}
	s.nlive = 0
	for n := range s.nodes {
		s.nodes[n].live = s.alive == nil || s.alive(n)
		if s.nodes[n].live {
			s.nlive++
		}
	}
	var out []assignment
	for assigned := true; assigned; {
		assigned = false
		for n := range s.nodes {
			if !s.hasFreeSlot(n) {
				continue
			}
			if t, ok := s.pick(n); ok {
				out = append(out, s.assign(t, n))
				assigned = true
			}
		}
	}
	for n := range s.nodes {
		if nd := &s.nodes[n]; nd.declined {
			nd.passed++
			nd.declined = false
		}
	}
	return out
}

// hasFreeSlot reports whether node n is alive and below its cap.
func (s *taskSched) hasFreeSlot(n int) bool {
	return s.nodes[n].live && s.nodes[n].running < s.capNode
}

// pick chooses the task node n, which has a free slot, takes in this pass.
func (s *taskSched) pick(n int) (task int, ok bool) {
	if len(s.pending) == 0 {
		if s.speculative {
			for t := range s.tasks {
				if tk := &s.tasks[t]; tk.active == 1 && !tk.done.Load() && tk.lastNode != n {
					s.specLaunched++
					return t, true
				}
			}
		}
		return 0, false
	}
	local, orphan, steal := -1, -1, -1
	for _, t := range s.pending {
		if s.retryKeptOff(t, n) {
			continue
		}
		switch s.claim(t, n) {
		case claimPrimary:
			return t, true
		case claimLocal:
			if local < 0 {
				local = t
			}
		case claimOrphan:
			if orphan < 0 {
				orphan = t
			}
		case claimSteal:
			if steal < 0 {
				steal = t
			}
		}
	}
	if local >= 0 {
		return local, true
	}
	if orphan >= 0 {
		return orphan, true
	}
	if steal >= 0 {
		if s.nodes[n].passed >= delayTolerance {
			s.nodes[n].passed = 0
			return steal, true
		}
		s.nodes[n].declined = true
	}
	return 0, false
}

// retryKeptOff reports whether t's latest attempt ran on n and another live
// node could run the next one.
func (s *taskSched) retryKeptOff(t, n int) bool {
	return s.tasks[t].lastNode == n && s.nlive > 1
}

type claimKind uint8

const (
	claimNone    claimKind = iota // a holder with a free slot takes it in this dispatch
	claimPrimary                  // rule 1, the node is the task's first location
	claimLocal                    // rule 1
	claimOrphan                   // rule 2
	claimSteal                    // rule 3
)

// claim classifies pending task t for node n, which has a free slot.
func (s *taskSched) claim(t, n int) claimKind {
	kind := claimOrphan
	for i, h := range s.tasks[t].holders {
		switch {
		case h == n && i == 0:
			return claimPrimary
		case h == n:
			return claimLocal
		case !s.nodes[h].live || s.retryKeptOff(t, h):
			// Not a holder that can take it.
		case s.hasFreeSlot(h):
			kind = claimNone
		case kind == claimOrphan:
			kind = claimSteal
		}
	}
	return kind
}

func (s *taskSched) assign(t, n int) assignment {
	if i := sort.SearchInts(s.pending, t); i < len(s.pending) && s.pending[i] == t {
		s.pending = append(s.pending[:i], s.pending[i+1:]...)
	}
	tk := &s.tasks[t]
	s.nodes[n].running++
	s.totalRun++
	tk.active++
	tk.started++
	tk.lastNode = n
	place := placementOf(tk.holders, n, func(h int) bool { return s.nodes[h].live })
	return assignment{task: t, attempt: tk.started, node: n, place: place, ready: tk.readyAt}
}
