package colstore

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

// TestGroupFileBytesGolden pins the bytes of both group-file formats: a row
// file of several groups over more than one HDFS block, an RCFile of several
// row groups, and the part file a RowOutput task writes (a key's fields
// concatenated ahead of a row's, every other row written encoded). A change
// to either writer's framing, footer or group body moves a hash.
func TestGroupFileBytesGolden(t *testing.T) {
	const blockSize = 4096
	e := newEnv(2, blockSize)
	if _, err := WriteRowTable(e.fs, "/rows", tblSchema, genRows(600)); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteRCTable(e.fs, "/rc", tblSchema, 100, genRows(350)); err != nil {
		t.Fatal(err)
	}

	keySchema := records.NewSchema(records.F("k", records.KindInt64))
	out := &RowOutput{Dir: "/out", Schema: records.NewSchema(append(keySchema.Fields(), tblSchema.Fields()...)...)}
	w, err := out.OpenWriter(mr.NewTestTaskContext(&mr.JobContext{FS: e.fs, Cluster: e.cluster}, e.cluster.Nodes()[1]), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		row := records.Make(out.Schema, append([]records.Value{records.Int(int64(i % 7))}, makeRow(i).Values()...)...)
		if i%2 == 0 {
			err = w.Write(records.Record{}, row)
		} else {
			err = w.WriteEncoded(records.AppendRecord(nil, row))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		path   string
		blocks int // the file is longer than blocks-1 of them
		want   string
	}{
		{"/rows/part-00000", 3, "00d867b27bd2c33922ddd9834c3a136d6114fcef7e7ea92a3b15c7340152abbe"},
		{"/rc/part-00000", 1, "79e8f038176060594633747d006acd04acb566594d189db1df7aba2c144be48c"},
		{"/out/part-00003", 2, "b0bf7e8bd17bf199d3c084f449b46855735883a82c7b5ff73ee8a0741d6cfe8e"},
	} {
		data, err := e.fs.ReadAll(c.path, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(data) <= (c.blocks-1)*blockSize {
			t.Errorf("%s: %d bytes, want more than %d blocks' worth", c.path, len(data), c.blocks-1)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.path, got, c.want)
		}
	}
}
