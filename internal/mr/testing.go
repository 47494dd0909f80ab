package mr

import "clydesdale/internal/cluster"

// NewTestTaskContext builds a standalone TaskContext bound to a node, for
// exercising InputFormats and readers outside a running job (tests, tools).
// Memory allowance is the node's full budget and the JVM is fresh.
func NewTestTaskContext(jctx *JobContext, node *cluster.Node) *TaskContext {
	if jctx.Counters == nil {
		jctx.Counters = NewCounters()
	}
	return &TaskContext{
		JobContext: jctx,
		TaskID:     "test-task",
		Attempt:    1,
		node:       node,
		jvm:        &JVM{ID: jvmSeq.Add(1)},
		allowance:  1 << 62,
	}
}
