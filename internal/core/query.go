// Package core implements Clydesdale, the paper's contribution: a star-join
// query engine that runs each query as a single MapReduce job on the
// unmodified engine in package mr. The map side builds hash tables over the
// locally cached, predicate-filtered dimension tables — once per node,
// shared by all of the node's threads via a multi-threaded map task and
// across consecutive tasks via JVM reuse — and probes them with early-out
// while scanning the CIF fact table with block iteration; reducers perform
// the grouped aggregation and the driver runs the final single-process sort
// (§4, §5).
package core

import (
	"fmt"
	"strings"

	"clydesdale/internal/expr"
	"clydesdale/internal/records"
)

// DimSpec names one dimension participating in a join and says what hash
// table to build over it. A Query lists them by hand; the executors derive
// them from a plan's join edges (DimSpecOf).
type DimSpec struct {
	// Table is the dimension's name in the catalog.
	Table string
	// Schema is the dimension's schema.
	Schema *records.Schema
	// FactFK and DimPK are the join key pair (fact side, dimension side).
	FactFK string
	DimPK  string
	// Pred filters the dimension before the hash table is built; nil keeps
	// every row.
	Pred expr.Pred
	// Aux lists the dimension columns the query projects (group-by inputs).
	Aux []string
	// Version is the version of the table the build reads (see
	// colstore.Snapshots). The executors stamp it from the query's pinned
	// vector; zero builds from whatever version is current.
	Version uint64
}

// Fingerprint identifies the hash table this spec builds over a given
// dimension directory: the table version, the join key, the build-time
// predicate, and the projected aux columns. Two specs with equal
// fingerprints over the same directory produce byte-identical tables, so a
// cross-query cache may share one build between them.
func (d *DimSpec) Fingerprint() string {
	p := "TRUE"
	if d.Pred != nil {
		p = d.Pred.String()
	}
	return fmt.Sprintf("%d|%s|%s|%s", d.Version, d.DimPK, p, strings.Join(d.Aux, ","))
}

// OrderKey is one ORDER BY term; Col may name a group-by column or the
// aggregate output.
type OrderKey struct {
	Col  string
	Desc bool
}

// Query is a declarative star query: join the fact table with the listed
// dimensions, filter, aggregate one SUM measure, group and order. It is the
// builder for hand-written queries (the 13 SSB queries, the examples);
// LogicalOf lifts it into the plan IR, which is what Clydesdale and the Hive
// baseline execute.
type Query struct {
	Name     string
	Dims     []DimSpec
	FactPred expr.Pred // predicate over fact columns only
	AggExpr  expr.Expr // SUM argument, over fact columns
	AggName  string    // output column name for the aggregate
	GroupBy  []string  // dimension auxiliary columns
	OrderBy  []OrderKey
}

// Dim returns the spec for a dimension table, or nil.
func (q *Query) Dim(table string) *DimSpec {
	for i := range q.Dims {
		if q.Dims[i].Table == table {
			return &q.Dims[i]
		}
	}
	return nil
}

// GroupSchema is the schema of the group-by key (possibly empty).
func (q *Query) GroupSchema() *records.Schema {
	fields := make([]records.Field, len(q.GroupBy))
	for i, g := range q.GroupBy {
		fields[i] = records.F(g, q.groupColKind(g))
	}
	return records.NewSchema(fields...)
}

// ResultSchema is the schema of the query's result rows: group-by columns
// followed by the aggregate.
func (q *Query) ResultSchema() *records.Schema {
	fields := q.GroupSchema().Fields()
	fields = append(fields, records.F(q.AggName, records.KindFloat64))
	return records.NewSchema(fields...)
}

// groupColKind resolves a group-by column's kind from the dim schemas.
func (q *Query) groupColKind(col string) records.Kind {
	for _, d := range q.Dims {
		if d.Schema != nil {
			if i := d.Schema.Index(col); i >= 0 {
				return d.Schema.Field(i).Kind
			}
		}
	}
	panic("core: unknown group column " + col)
}

// Validate checks the query's internal consistency against its dim schemas.
func (q *Query) Validate() error {
	if q.AggExpr == nil || q.AggName == "" {
		return fmt.Errorf("core: query %s has no aggregate", q.Name)
	}
	for _, d := range q.Dims {
		if d.Schema == nil {
			return fmt.Errorf("core: query %s: dim %s has no schema", q.Name, d.Table)
		}
		if d.Schema.Index(d.DimPK) < 0 {
			return fmt.Errorf("core: query %s: dim %s has no PK column %s", q.Name, d.Table, d.DimPK)
		}
		for _, a := range d.Aux {
			if d.Schema.Index(a) < 0 {
				return fmt.Errorf("core: query %s: dim %s has no aux column %s", q.Name, d.Table, a)
			}
		}
	}
	for _, g := range q.GroupBy {
		found := false
		for _, d := range q.Dims {
			for _, a := range d.Aux {
				if a == g {
					found = true
				}
			}
		}
		if !found {
			return fmt.Errorf("core: query %s: group column %s is not an aux column of any dimension", q.Name, g)
		}
	}
	return nil
}

// String renders the query compactly for logs.
func (q *Query) String() string {
	var dims []string
	for _, d := range q.Dims {
		p := "TRUE"
		if d.Pred != nil {
			p = d.Pred.String()
		}
		dims = append(dims, fmt.Sprintf("%s[%s]", d.Table, p))
	}
	return fmt.Sprintf("%s: SUM(%s) JOIN %s GROUP BY %s",
		q.Name, q.AggExpr, strings.Join(dims, ", "), strings.Join(q.GroupBy, ","))
}

// Catalog locates a star schema's tables in HDFS.
type Catalog struct {
	// FactName is the fact table's name, so a bound plan can refer to the
	// catalog's tables uniformly (the SQL binder requires it).
	FactName string
	// FactDir is the fact table's CIF directory.
	FactDir string
	// FactSchema is the fact table's schema.
	FactSchema *records.Schema
	// DimDirs maps dimension name → HDFS row-table directory (the master
	// copy, §4).
	DimDirs map[string]string
	// DimSchemas maps dimension name → schema.
	DimSchemas map[string]*records.Schema
}

// DimDir returns the HDFS directory of a dimension, or an error.
func (c *Catalog) DimDir(table string) (string, error) {
	d, ok := c.DimDirs[table]
	if !ok {
		return "", fmt.Errorf("core: catalog has no dimension %q", table)
	}
	return d, nil
}
