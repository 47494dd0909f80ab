package colstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
)

// Zone maps: each CIF partition carries a small "_stats" sidecar recording
// per-column min/max/null-count. The scan planner evaluates the query's
// fact predicate over these ranges (expr.PredRange) and drops partitions
// that provably contain no matching row, before any task is scheduled.
//
// The sidecar is strictly advisory and versioned by its own magic: tables
// written before zone maps existed simply have no sidecar, and a missing,
// truncated, or corrupted sidecar degrades to "scan the partition", never
// to an error or a wrong prune.

// StatsFileName is the per-partition zone-map sidecar.
const StatsFileName = "_stats"

var statsMagic = []byte{'C', 'Z', 'M', '1'}

// ColStats summarizes one column of one partition.
type ColStats struct {
	Name  string
	Nulls int64
	// Min and Max are the smallest and largest values present (null when the
	// column holds no non-null values).
	Min, Max records.Value
}

// PartitionStats is the zone map of one CIF partition.
type PartitionStats struct {
	Rows int64
	Cols []ColStats
}

// RangeSource adapts the stats to expr interval evaluation.
func (ps *PartitionStats) RangeSource() expr.RangeSource {
	return func(col string) (expr.ColRange, bool) {
		for i := range ps.Cols {
			if ps.Cols[i].Name == col {
				c := &ps.Cols[i]
				return expr.ColRange{Min: c.Min, Max: c.Max, HasNulls: c.Nulls > 0}, true
			}
		}
		return expr.ColRange{}, false
	}
}

// encode is the zone map as the partition's _stats sidecar holds it.
func (ps *PartitionStats) encode() []byte {
	buf := append([]byte(nil), statsMagic...)
	buf = binary.AppendUvarint(buf, uint64(ps.Rows))
	buf = binary.AppendUvarint(buf, uint64(len(ps.Cols)))
	for _, c := range ps.Cols {
		buf = binary.AppendUvarint(buf, uint64(len(c.Name)))
		buf = append(buf, c.Name...)
		buf = binary.AppendUvarint(buf, uint64(c.Nulls))
		buf = records.AppendValue(buf, c.Min)
		buf = records.AppendValue(buf, c.Max)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// ReadPartitionStats loads a partition's zone map. A missing, truncated, or
// corrupted sidecar returns (nil, nil): callers must treat absent stats as
// "cannot prune" and scan the partition in full. The sidecar is read (and
// charged, and CRC-checked by HDFS) on every call, but decoded, its own CRC
// included, once per stored block: the zone map returned is shared and
// read-only.
func ReadPartitionStats(fs *hdfs.FileSystem, pdir string) (*PartitionStats, error) {
	path := pdir + "/" + StatsFileName
	if !fs.Exists(path) {
		return nil, nil
	}
	v, _, err := fs.ReadDecoded(path, "", obs.SpanContext{}, func(data []byte) (any, error) {
		return decodeStats(data)
	})
	if err != nil {
		return nil, nil
	}
	ps, _ := v.(*PartitionStats)
	return ps, nil
}

var errBadStats = errors.New("colstore: unreadable zone map")

// decodeStats takes a _stats sidecar apart: its magic and CRC first, then
// the zone map. Any inconsistency is errBadStats.
func decodeStats(data []byte) (*PartitionStats, error) {
	if len(data) < len(statsMagic)+4 || string(data[:len(statsMagic)]) != string(statsMagic) {
		return nil, errBadStats
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, errBadStats
	}
	pos := len(statsMagic)
	rows, n := binary.Uvarint(body[pos:])
	if n <= 0 {
		return nil, errBadStats
	}
	pos += n
	ncols, n := binary.Uvarint(body[pos:])
	if n <= 0 {
		return nil, errBadStats
	}
	pos += n
	ps := &PartitionStats{Rows: int64(rows), Cols: make([]ColStats, 0, ncols)}
	for i := uint64(0); i < ncols; i++ {
		nameLen, n := binary.Uvarint(body[pos:])
		if n <= 0 || pos+n+int(nameLen) > len(body) {
			return nil, errBadStats
		}
		pos += n
		name := string(body[pos : pos+int(nameLen)])
		pos += int(nameLen)
		nulls, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return nil, errBadStats
		}
		pos += n
		min, n, err := records.DecodeValue(body[pos:])
		if err != nil {
			return nil, errBadStats
		}
		pos += n
		max, n, err := records.DecodeValue(body[pos:])
		if err != nil {
			return nil, errBadStats
		}
		pos += n
		ps.Cols = append(ps.Cols, ColStats{Name: name, Nulls: int64(nulls), Min: min, Max: max})
	}
	return ps, nil
}

// columnStats computes the zone map of one buffered column. For
// dictionary-encoded columns the min/max range over ALL dictionary entries:
// dictionaries are built in first-seen (arrival) order, which is not value
// order, so taking entries[0]/entries[len-1] as the bounds would record an
// arbitrary — possibly inverted — range and let the planner prune partitions
// that contain matching rows. Ranging over the distinct entries is both
// correct and cheaper than re-scanning every row.
func columnStats(name string, cv *records.ColumnVector, dict *dictEntries) ColStats {
	st := ColStats{Name: name}
	if dict != nil {
		switch {
		case len(dict.strs) > 0:
			lo, hi := dict.strs[0], dict.strs[0]
			for _, v := range dict.strs[1:] {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			st.Min, st.Max = records.Str(lo), records.Str(hi)
		case len(dict.ints) > 0:
			lo, hi := dict.ints[0], dict.ints[0]
			for _, v := range dict.ints[1:] {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			st.Min, st.Max = records.Int(lo), records.Int(hi)
		}
		return st
	}
	switch cv.Kind {
	case records.KindInt64:
		if len(cv.Ints) > 0 {
			lo, hi := cv.Ints[0], cv.Ints[0]
			for _, v := range cv.Ints[1:] {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			st.Min, st.Max = records.Int(lo), records.Int(hi)
		}
	case records.KindFloat64:
		if len(cv.Floats) > 0 {
			lo, hi := cv.Floats[0], cv.Floats[0]
			for _, v := range cv.Floats[1:] {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			st.Min, st.Max = records.Float(lo), records.Float(hi)
		}
	case records.KindString:
		if len(cv.Strs) > 0 {
			lo, hi := cv.Strs[0], cv.Strs[0]
			for _, v := range cv.Strs[1:] {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			st.Min, st.Max = records.Str(lo), records.Str(hi)
		}
	case records.KindBool:
		if len(cv.Bools) > 0 {
			lo, hi := cv.Bools[0], cv.Bools[0]
			for _, v := range cv.Bools[1:] {
				if !v {
					lo = false
				}
				if v {
					hi = true
				}
			}
			st.Min, st.Max = records.Bool(lo), records.Bool(hi)
		}
	}
	return st
}

// TableRowCount sums the zone-map row counts of a CIF table's partitions.
// Partitions without stats count zero.
func TableRowCount(fs *hdfs.FileSystem, dir string) (int64, error) {
	parts, err := ListPartitions(fs, dir)
	if err != nil {
		return 0, err
	}
	var rows int64
	for _, p := range parts {
		st, err := ReadPartitionStats(fs, p)
		if err != nil {
			return 0, err
		}
		if st != nil {
			rows += st.Rows
		}
	}
	return rows, nil
}
