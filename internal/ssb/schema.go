// Package ssb implements the Star Schema Benchmark (O'Neil et al. [33]) as
// the paper uses it: a deterministic data generator for the lineorder fact
// table and the customer, supplier, part and date dimensions, plus the 13
// benchmark queries (flights 1–4) expressed as declarative star-query specs
// that both the Clydesdale engine and the Hive baseline compile.
//
// One documented deviation from dbgen: p_brand1 numbers run 10–49 instead
// of 1–40 so brand strings have a fixed width and SQL BETWEEN over brands
// (query 2.2) keeps its dbgen semantics under plain lexicographic
// comparison. The brand count per category (40) is unchanged.
package ssb

import (
	"clydesdale/internal/records"
)

// Table names.
const (
	TableLineorder = "lineorder"
	TableCustomer  = "customer"
	TableSupplier  = "supplier"
	TablePart      = "part"
	TableDate      = "date"
)

// LineorderSchema is the fact table schema (the columns the benchmark
// touches, plus the standard bookkeeping columns).
var LineorderSchema = records.NewSchema(
	records.F("lo_orderkey", records.KindInt64),
	records.F("lo_linenumber", records.KindInt64),
	records.F("lo_custkey", records.KindInt64),
	records.F("lo_partkey", records.KindInt64),
	records.F("lo_suppkey", records.KindInt64),
	records.F("lo_orderdate", records.KindInt64),
	records.F("lo_orderpriority", records.KindString),
	records.F("lo_shippriority", records.KindInt64),
	records.F("lo_quantity", records.KindInt64),
	records.F("lo_extendedprice", records.KindInt64),
	records.F("lo_ordtotalprice", records.KindInt64),
	records.F("lo_discount", records.KindInt64),
	records.F("lo_revenue", records.KindInt64),
	records.F("lo_supplycost", records.KindInt64),
	records.F("lo_tax", records.KindInt64),
	records.F("lo_commitdate", records.KindInt64),
	records.F("lo_shipmode", records.KindString),
)

// CustomerSchema is the customer dimension schema.
var CustomerSchema = records.NewSchema(
	records.F("c_custkey", records.KindInt64),
	records.F("c_name", records.KindString),
	records.F("c_address", records.KindString),
	records.F("c_city", records.KindString),
	records.F("c_nation", records.KindString),
	records.F("c_region", records.KindString),
	records.F("c_phone", records.KindString),
	records.F("c_mktsegment", records.KindString),
)

// SupplierSchema is the supplier dimension schema.
var SupplierSchema = records.NewSchema(
	records.F("s_suppkey", records.KindInt64),
	records.F("s_name", records.KindString),
	records.F("s_address", records.KindString),
	records.F("s_city", records.KindString),
	records.F("s_nation", records.KindString),
	records.F("s_region", records.KindString),
	records.F("s_phone", records.KindString),
)

// PartSchema is the part dimension schema.
var PartSchema = records.NewSchema(
	records.F("p_partkey", records.KindInt64),
	records.F("p_name", records.KindString),
	records.F("p_mfgr", records.KindString),
	records.F("p_category", records.KindString),
	records.F("p_brand1", records.KindString),
	records.F("p_color", records.KindString),
	records.F("p_type", records.KindString),
	records.F("p_size", records.KindInt64),
	records.F("p_container", records.KindString),
)

// DateSchema is the date dimension schema.
var DateSchema = records.NewSchema(
	records.F("d_datekey", records.KindInt64),
	records.F("d_date", records.KindString),
	records.F("d_dayofweek", records.KindString),
	records.F("d_month", records.KindString),
	records.F("d_year", records.KindInt64),
	records.F("d_yearmonthnum", records.KindInt64),
	records.F("d_yearmonth", records.KindString),
	records.F("d_daynuminweek", records.KindInt64),
	records.F("d_daynuminmonth", records.KindInt64),
	records.F("d_monthnuminyear", records.KindInt64),
	records.F("d_weeknuminyear", records.KindInt64),
	records.F("d_sellingseason", records.KindString),
)

// SchemaOf returns the schema for a table name, or nil.
func SchemaOf(table string) *records.Schema {
	switch table {
	case TableLineorder:
		return LineorderSchema
	case TableCustomer:
		return CustomerSchema
	case TableSupplier:
		return SupplierSchema
	case TablePart:
		return PartSchema
	case TableDate:
		return DateSchema
	}
	return nil
}

// Regions are the five SSB/TPC-H regions.
var Regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// Nations maps each of the 25 nations to its region.
var Nations = []struct{ Name, Region string }{
	{"ALGERIA", "AFRICA"},
	{"ARGENTINA", "AMERICA"},
	{"BRAZIL", "AMERICA"},
	{"CANADA", "AMERICA"},
	{"EGYPT", "MIDDLE EAST"},
	{"ETHIOPIA", "AFRICA"},
	{"FRANCE", "EUROPE"},
	{"GERMANY", "EUROPE"},
	{"INDIA", "ASIA"},
	{"INDONESIA", "ASIA"},
	{"IRAN", "MIDDLE EAST"},
	{"IRAQ", "MIDDLE EAST"},
	{"JAPAN", "ASIA"},
	{"JORDAN", "MIDDLE EAST"},
	{"KENYA", "AFRICA"},
	{"MOROCCO", "AFRICA"},
	{"MOZAMBIQUE", "AFRICA"},
	{"PERU", "AMERICA"},
	{"CHINA", "ASIA"},
	{"ROMANIA", "EUROPE"},
	{"SAUDI ARABIA", "MIDDLE EAST"},
	{"VIETNAM", "ASIA"},
	{"RUSSIA", "EUROPE"},
	{"UNITED KINGDOM", "EUROPE"},
	{"UNITED STATES", "AMERICA"},
}

// CityOf derives an SSB city: the nation name padded/truncated to nine
// characters plus a digit 0–9 ("UNITED KI1").
func CityOf(nation string, digit int) string {
	name := nation
	for len(name) < 9 {
		name += " "
	}
	return name[:9] + string(rune('0'+digit))
}
