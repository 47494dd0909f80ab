package colstore

import (
	"fmt"
	"sync"

	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

// RowOutput is an mr.OutputFormat writing the values of each task's (key,
// value) pairs as rows of a row-format table under Dir; keys are ignored.
//
// Hive's staged plans use this to round-trip intermediate join results
// through HDFS between MapReduce jobs (§6.3).
type RowOutput struct {
	Dir    string
	Schema *records.Schema

	once sync.Once
	err  error
}

// OpenWriter implements mr.OutputFormat.
func (o *RowOutput) OpenWriter(ctx *mr.TaskContext, taskIndex int) (mr.RecordWriter, error) {
	o.once.Do(func() {
		if o.Schema == nil {
			o.err = fmt.Errorf("colstore: RowOutput for %s has no schema", o.Dir)
			return
		}
		if !ctx.FS.Exists(o.Dir + "/" + SchemaFileName) {
			o.err = WriteSchema(ctx.FS, o.Dir, o.Schema)
		}
	})
	if o.err != nil {
		return nil, o.err
	}
	path := fmt.Sprintf("%s/part-%05d", o.Dir, taskIndex)
	// Task re-execution may leave a stale partial file; replace it.
	ctx.FS.Delete(path)
	w, err := NewRowWriter(ctx.FS, path, ctx.Node().ID(), o.Schema, 0)
	if err != nil {
		return nil, err
	}
	return &rowOutputWriter{w: w}, nil
}

type rowOutputWriter struct{ w *RowWriter }

func (w *rowOutputWriter) Write(_, v records.Record) error { return w.w.Append(v) }

func (w *rowOutputWriter) WriteEncoded(v []byte) error { return w.w.AppendEncoded(v) }

func (w *rowOutputWriter) Close() error { return w.w.Close() }
