# Standard developer checks. `make check` (the default goal) is the gate
# used before sending changes: formatting, vet, a full build, the
# concurrency-heavy packages (serve, core, mr) under the race detector, and
# the smoke runs of the repository benchmark, the examples and the commands.

GO ?= go

.PHONY: check fmt vet no-deprecated no-sleep surface build test race race-concurrency chaos plan-golden bench fuzz-smoke bench-smoke bench-pairs profile-smoke benchmark-smoke examples-smoke loc clean

check: fmt vet no-deprecated no-sleep surface build race-concurrency chaos plan-golden benchmark-smoke examples-smoke

# Fail if any file is not gofmt-clean, listing the offenders.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The engine, the serving layer and the baseline carry no deprecated entry
# points: a replaced API is deleted with its call sites migrated, not kept
# beside its successor. (internal/sql keeps three markers on the star-only
# front door the repository benchmark calls.) Nor does the invalidation
# fan-out come back: derived state is keyed by table version (DESIGN.md
# "Table versions"), so the engine and the serving layer have no hint
# generations, table-cache generations or doomed entries to maintain. Nor
# does a second dimension path: a task gets its hash tables from
# core.TableCache and the driver reads a dimension version once, in
# core.Engine.dimScanFor (DESIGN.md "Dimension cache"), so no TableProvider,
# nodeTableGroup or version memo of its own belongs in the serving layer. Nor
# does a second dimension build: a DimHashTable is made in one place,
# buildDimTable, from a column set, and called only where a table is not
# there to share — an engine's memo on a miss (tableFrom, for the driver's
# image and the nodes' copies alike), an engine-less node build
# (BuildDimHashTable's buildFromCopy), estimates and the Hive baseline's
# mapjoin driver (core.BuildDimTables) — so no row walk of a version (ScanRowTableAt), no
# row-wise filter in core or in the baseline (selectDim), no mapjoin estimate
# beside the build (EstimateMapJoinHashBytes; the boxed-entry model is the
# baseline's own, not plan's MapJoinEntryBytes) and no size formula beside the
# build (dimTableCapacity outside hashtable.go). Nor does a second SUM tail:
# the baseline's group-by job reduces with core.SumReducer and collects with
# core.CollectRows (no hiveSumReducer). Nor does a multi-split pack by
# count: CIFInput packs by bytes whenever a job runs more than one map
# thread (DESIGN.md "Query pipeline"), so no job sets a pack size. Nor does
# a string-keyed job configuration: a job's four settings are the typed
# fields of mr.Conf (no JobConf, NewJobConf). Nor does a second group-file
# framing: row files and RCFiles share one footer codec, split type, split
# cutter and open step (internal/colstore/groupfile.go), so no RowSplit,
# RCSplit, decodeRCFooter, decodeGroupFooter or splitRowFile. Nor does a
# guessed span parent: a task phase is opened with TaskContext.Begin under
# the phase it runs in, so the profile nests spans by Parent alone, with no
# time-containment pass in internal/obs (refine, strictlyContains,
# containerOrder) and no phase emitted flat under its task (ctx.Span). Nor
# does a second grouping of spans: the timeline is drawn from the profile
# tree (Profile.WriteTimeline) and the phase table is Profile.Phases, so no
# RenderTimeline, TimelineOptions, phaseStyle priority table,
# AggregatePhases or WritePhaseSummary. Nor does a second copy of a metric:
# the registry reads a count or a level from the state that owns it
# (Registry.CounterFunc, GaugeFunc; DESIGN.md "Observability"), so no
# settable gauge (obs.Gauge, Registry.Gauge), no gauge pushed at each change
# or synced at scrape time, no registry counter beside an owner's atomic
# and no report field copied from the job counters (fillScanStats). Nor does
# a second meaning of a row output: RowOutput writes values, so an encoded
# write (RecordWriter.WriteEncoded) is one row as it stands, with no key
# folded in (IncludeKey). Nor does a figure measured in host time over
# sleeps: a cell of Figures 7-9 and a breakdown total are the modeled
# node-seconds of one warm run (internal/bench Cost), with host CPU beside
# them and never added, so the harness and the root figure benchmarks set
# no TimeScale, take no Repeats and keep no medianTime. Nor does a second
# map-side path of the repartition join: its runner decodes a row's key and
# predicate fields from the readers' spans (NextSpans) and collects the rest
# as bytes (DESIGN.md "Record path"), so the row reader has no decoding
# projection of its own (decodeProjected) and runRepartitionStage no
# MapperFunc. Nor does a second table registry: a filesystem holds the one
# colstore.Snapshots every engine and session over it shares, made in
# NewSnapshots through hdfs.FileSystem.Tables, and that registry's writer
# lock serializes roll-in, compaction and retention, so no Snapshots literal
# is made anywhere else and serve keeps no write mutex of its own (ingestMu).
# Nor does a second open of a CIF column file: openColumn is the one way a
# reader opens one, through the decode HDFS keeps on the file's block
# (FileSystem.ReadDecoded), so openColumnFile is called only there and by
# the fuzz targets (fuzz_test.go), and no non-test colstore code reads a .col
# or _stats file with ReadAll (only the table's _schema is read that way).
# Nor does a semi-join bitmap made per query: a filter's verdict on each
# dictionary entry of a column file is kept on the colFile (keyBitsFor), so
# no non-test colstore code outside bloom.go probes a bloom (MayContain), and
# a partition's plan makes no map (planPartition). Nor does a second write
# path (DESIGN.md "Live ingestion"): the dictionary builder's lookup is its
# open-addressing code table, so no map in dictBuilder's code; compaction
# decodes, sorts and gathers column vectors, so compact.go boxes no row
# (ScanCIFPartition) and sorts none (sort.SliceStable); and the registry
# keeps each table's partition list, so only ListPartitions and the
# registry's re-list (relistLocked: first sight, Bump, SweepUncommitted, a
# taken name) walk a table directory (scanPartitionDirs). Nor does a second
# owner of a node's memory: the sessions over one mr.Engine share its host
# (DESIGN.md "What a session owns, and what it shares"), so outside tests
# internal/serve makes a table cache, an admitter and a trace collector only
# in the host's constructor (openHost). Nor does per-query work come back to
# the probe path: a CIF reader adds its scan counters to the job's once, at
# Close, so cifReader.NextBlock calls no Counters.Add; and a dimension
# table's side tables are shared by every handle on it (DESIGN.md
# "Dictionary-probe side tables"), so DimHashTable declares no side-table
# mutex or map of its own (sideMu, sideTables). Nor does a second encode
# of a dimension version: its column image is made once per filesystem, in
# the memoized colstore.EncodeRowTable (DESIGN.md "Dimension cache"), so in
# non-test internal/colstore a column-set writer is made (newColumnSetWriter)
# only there and in EncodeRows, the encoder of a caller's rows, which no
# colstore code calls, and a version's part files are named (rowPartPaths)
# only there; and internal/core calls EncodeRowTable only from a node's fill
# (ensureDimCachedOn) and the driver's read (Engine.dimScanFor). The parent
# of this rule fails it: its EncodeRowTable encoded through EncodeRows on
# every call.
no-deprecated:
	@if grep -rn "Deprecated:" internal/core internal/serve internal/hive; then \
		echo "deprecated API in core/serve/hive: delete it and migrate the callers"; exit 1; fi
	@if grep -rnw -e hintGen -e invalidateDim -e dropEstimates -e doomed internal/core internal/serve; then \
		echo "invalidation fan-out in core/serve: key the state by table version instead"; exit 1; fi
	@if grep -rnw -e TableProvider -e nodeTableGroup internal/core internal/serve || \
		grep -n VersionMemo $$(ls internal/serve/*.go | grep -v _test.go); then \
		echo "second dimension path: tables come from core.TableCache, driver-side dimension scans from core.Engine.dimScanFor (DimTableBytes)"; exit 1; fi
	@if grep -rn --include='*.go' -e ScanRowTableAt -e selectDim -e EstimateMapJoinHashBytes . || \
		grep -rn --include='*.go' MapJoinEntryBytes internal/plan || \
		grep -n '\.Select(' $$(ls internal/core/*.go | grep -v _test.go) || \
		grep -rn --include='*.go' 'dimTableCapacity(' . | grep -v '^\./internal/core/hashtable\.go:' || \
		awk 'FNR == 1 { fn = "" } /^func / { fn = $$0 } /buildDimTable\(/ && !/^[ \t]*\/\// && !/^func buildDimTable\(/ && \
		fn !~ /^func (tableFrom|buildFromCopy|BuildDimTables)\(/ { print FILENAME ":" FNR ": " $$0; found = 1 } \
		END { exit !found }' $$(ls internal/core/*.go | grep -v _test.go); then \
		echo "second dimension build: buildDimTable (internal/core/hashtable.go) is the one place a dimension table is made, called on an engine memo's miss (tableFrom), by the engine-less node build (BuildDimHashTable) and for an estimate or the Hive mapjoin's broadcast (core.BuildDimTables)"; exit 1; fi
	@if grep -rn --include='*.go' hiveSumReducer .; then \
		echo "second SUM tail: the Hive baseline's group-by job uses core.SumReducer and core.CollectRows"; exit 1; fi
	@if grep -rn --include='*.go' -e ConfMultiSplitPack -e 'mr\.multisplit\.pack' .; then \
		echo "multi-split pack size: CIFInput packs by bytes from mr.Conf.MapThreads and the block size, no job sets a count"; exit 1; fi
	@if grep -rnw --include='*.go' -e JobConf -e NewJobConf .; then \
		echo "string-keyed job configuration: a job's settings are the typed fields of mr.Conf"; exit 1; fi
	@if grep -rnw --include='*.go' -e RowSplit -e RCSplit -e decodeRCFooter -e decodeGroupFooter -e splitRowFile .; then \
		echo "second group-file framing: row files and RCFiles share internal/colstore/groupfile.go"; exit 1; fi
	@if grep -rn -e 'refine(' -e strictlyContains -e containerOrder internal/obs || \
		grep -rn --include='*.go' 'ctx.Span(obs.Phase' .; then \
		echo "a span's parent is the one it names: TaskContext.Begin"; exit 1; fi
	@if grep -rn --include='*.go' -e RenderTimeline -e TimelineOptions -e AggregatePhases -e WritePhaseSummary -e phaseStyle .; then \
		echo "a timeline is a view of the profile: Profile.WriteTimeline"; exit 1; fi
	@if grep -rnw --include='*.go' -e updateGaugesLocked -e syncGauges -e countIngest -e noteFailover \
		-e noteRereplicationFailure -e fillScanStats -e mLocalBytes -e hitsCtr . || \
		grep -rn --include='*.go' -e '\.Gauge(' -e 'obs\.Gauge\b' -e 'type Gauge\b' .; then \
		echo "a metric is read from the state that owns it: Registry.CounterFunc / GaugeFunc"; exit 1; fi
	@if grep -rnw --include='*.go' IncludeKey .; then \
		echo "a row output writes values: an encoded write is one row, with no key folded in"; exit 1; fi
	@if grep -rnw -e TimeScale -e Repeats -e medianTime internal/bench bench_test.go; then \
		echo "figures are modeled node-seconds of a warm run, never host time over sleeps: no TimeScale, Repeats or medianTime in internal/bench or bench_test.go"; exit 1; fi
	@if grep -rnw --include='*.go' decodeProjected . || \
		awk '/^func \(e \*Engine\) runRepartitionStage\(/,/^}/' internal/hive/repartition.go | grep -n MapperFunc; then \
		echo "one map-side path in the repartition join: spans in, the key and predicate fields decoded, the rest collected as bytes (no decodeProjected, no MapperFunc in runRepartitionStage)"; exit 1; fi
	@if awk 'FNR == 1 { inNew = 0 } /^func NewSnapshots\(/ { inNew = 1; shared = 0 } inNew && /\.Tables\(func/ { shared = 1 } \
		/Snapshots\{/ && !(inNew && shared) { print FILENAME ":" FNR ": " $$0; found = 1 } inNew && /^}/ { inNew = 0 } \
		END { exit !found }' $$(find . -name '*.go') || grep -rnw ingestMu internal/serve; then \
		echo "one table registry per filesystem: colstore.NewSnapshots returns the filesystem's (hdfs.FileSystem.Tables), whose writer lock serializes every writer; no other Snapshots literal, no session write mutex"; exit 1; fi
	@if awk 'FNR == 1 { inOpen = 0 } /^func openColumn\(/ { inOpen = 1 } /openColumnFile\(/ && !inOpen && !/^func openColumnFile\(/ { print FILENAME ":" FNR ": " $$0; found = 1 } \
		inOpen && /^}/ { inOpen = 0 } END { exit !found }' $$(ls internal/colstore/*.go | grep -v '/fuzz_test\.go$$') || \
		grep -n ReadAll $$(ls internal/colstore/*.go | grep -v _test.go) | grep -v SchemaFileName; then \
		echo "one open path for a column file: openColumn, memoized on the HDFS block (ReadDecoded); no other openColumnFile call outside fuzz_test.go, no ReadAll of a .col or _stats file in internal/colstore"; exit 1; fi
	@if grep -n 'MayContain(' $$(ls internal/colstore/*.go | grep -v -e _test.go -e '/bloom\.go$$') || \
		awk '/^func \(r \*cifReader\) planPartition\(/,/^}/' internal/colstore/cif.go | grep -n 'make(map'; then \
		echo "one semi-join bitmap per column file and bloom: keyBitsFor (bloom.go) keeps it on the colFile; no bloom probe elsewhere in internal/colstore, no map made in planPartition"; exit 1; fi
	@if awk '/^(type dictBuilder|func newDictBuilder|func \(b \*dictBuilder)/ { inB = 1 } inB && /map\[/ { print FILENAME ":" FNR ": " $$0; found = 1 } \
		inB && /^}/ { inB = 0 } END { exit !found }' internal/colstore/encoding.go || \
		grep -n -e ScanCIFPartition -e 'sort\.SliceStable' internal/colstore/compact.go || \
		awk 'FNR == 1 { ok = 0 } /^func ListPartitions\(|^func \(s \*Snapshots\) relistLocked\(/ { ok = 1 } \
		/scanPartitionDirs\(/ && !ok && !/^func scanPartitionDirs\(/ { print FILENAME ":" FNR ": " $$0; found = 1 } \
		ok && /^}/ { ok = 0 } END { exit !found }' $$(ls internal/colstore/*.go | grep -v _test.go); then \
		echo "one write path: the dictionary builder looks up its code table, not a map (encoding.go); compaction gathers column vectors, boxing and sorting no row (compact.go); only ListPartitions and Snapshots.relistLocked walk a table's partition directories"; exit 1; fi
	@if awk 'FNR == 1 { inH = 0 } /^func openHost\(/ { inH = 1 } \
		/(core\.NewTableCache|newAdmitter|NewTraceCollector)\(/ && !inH && !/^func newAdmitter\(/ && !/^[ \t]*\/\// { print FILENAME ":" FNR ": " $$0; found = 1 } \
		inH && /^}/ { inH = 0 } END { exit !found }' $$(ls internal/serve/*.go | grep -v _test.go); then \
		echo "one owner of a node's memory: the sessions over an engine share its host, and only its constructor (openHost) makes a table cache, an admitter or a trace collector"; exit 1; fi
	@if awk '/^func \(r \*cifReader\) NextBlock\(/,/^}/' internal/colstore/cif.go | grep -n 'Counters\.Add' || \
		awk '/^type DimHashTable struct/,/^}/' internal/core/hashtable.go | grep -nE '^[[:space:]]*(sideMu|sideTables)[[:space:]]|map\['; then \
		echo "per-query work on the probe path: a CIF reader adds its scan counters at Close (scanTally), not per block in NextBlock; side tables live on the state every handle of a DimHashTable shares (sideTables), not on the handle"; exit 1; fi
	@if awk 'FNR == 1 { fn = "" } /^func / { fn = $$0 } /(newColumnSetWriter|EncodeRows|rowPartPaths)\(/ && !/^func / && !/^[ \t]*\/\// && \
		!(fn ~ /^func EncodeRowTable\(/ && !/EncodeRows\(/) && !(fn ~ /^func EncodeRows\(/ && /newColumnSetWriter\(/) \
		{ print FILENAME ":" FNR ": " $$0; found = 1 } END { exit !found }' $$(ls internal/colstore/*.go | grep -v _test.go) || \
		awk 'FNR == 1 { fn = "" } /^func / { fn = $$0 } /EncodeRowTable\(/ && !/^[ \t]*\/\// && fn !~ /^func (ensureDimCachedOn|\(e \*Engine\) dimScanFor)\(/ \
		{ print FILENAME ":" FNR ": " $$0; found = 1 } END { exit !found }' $$(ls internal/core/*.go | grep -v _test.go); then \
		echo "a second encode of a dimension version: its image is made once per filesystem in colstore.EncodeRowTable, which internal/core calls only from ensureDimCachedOn and Engine.dimScanFor"; exit 1; fi

# The MapReduce runtime waits on events, never on the clock: task assignment
# is decided by one dispatch step at phase start, attempt completion, node
# death and cancellation (DESIGN.md "MapReduce scheduler"), so a job's wall
# time holds no timer. A sleep or timer in non-test internal/mr is a
# scheduling wait in disguise (the nap this gate was added with cost every
# job 2 ms); modeled time is charged through cluster.Node, not slept here.
no-sleep:
	@if grep -n -E 'time\.(Sleep|After|Tick|NewTimer)' $$(ls internal/mr/*.go | grep -v _test.go); then \
		echo "timer or sleep in internal/mr: wait on the event, not on the clock"; exit 1; fi

# The exported surface earns its place (DESIGN.md "Exported surface"): no
# exported name of internal/ that only tests use beyond the entries of
# testdata/surface.golden, which may only shrink, and every program under
# cmd/ and examples/ run by examples-smoke and named in README.md.
surface:
	$(GO) test -count=1 -run 'TestExportedSurface|TestBinariesAreSmoked' .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The serving layer, engine and MapReduce runtime are where the shared
# mutable state lives (table cache, admission queue, scheduler); their tests
# run under -race on every check. colstore rides along so the scan-path
# property tests (encoding round-trips, zone-map oracle) run race-checked
# too, and with internal/mr come the record path's model tests (random jobs
# held to the sorted-pairs reference, four goroutines on one collector) and
# its recycled buffers (two jobs on one engine). internal/hive is where the
# pooled buffers meet the repartition join's byte path (values moved from
# the shuffle to the row file undecoded).
race-concurrency:
	$(GO) test -race ./internal/serve/... ./internal/core/... ./internal/mr/... ./internal/colstore/... ./internal/hive/...

# Fault-injection suite (see DESIGN.md "Fault tolerance"): every SSB query
# under node kills, stragglers, transient read errors and corrupted
# replicas must match the healthy answer, race-checked because recovery is
# where scheduler, namenode and cache state interleave.
chaos:
	$(GO) test -race ./internal/chaos/... ./internal/hdfs/... ./internal/cluster/...

# Lowering gate (see DESIGN.md "Query pipeline"): the golden plan texts for
# all 13 SSB queries (regenerate with `go test ./internal/plan -run
# GoldenPlans -update`), the snowflake property suite holding the lowered
# plan, its one-step-per-pass form, both under each ablation, the automatic
# fallback between them and both Hive strategies to the logical-plan oracle,
# the span check that a plan runs d jobs for depth d, the last one
# aggregating, and the multi-pass counter golden (`-run
# SnowflakeCountersGolden -update`), all under -race.
plan-golden:
	$(GO) test -race ./internal/plan/...

# Probe-path regression guard (see DESIGN.md "Probe hot path"): the table
# probe/build microbenchmarks and the per-row emit benchmark, with allocation
# counts. The gomap/boxed variants are the pre-change layouts kept in-tree as
# the comparison baseline — open vs gomap and inmapper/scratch vs boxed are
# the ratios to watch; DimBuildFromLocal is the whole per-node build phase,
# from the node-local dimension copy to a probe-ready table; ColumnDecode is
# the column codec by itself, ns and bytes per value for runs, gathers and
# skips (see DESIGN.md "Scan path"); SubmitEmptyJob is the MapReduce
# runtime's fixed cost per job and Dispatch the scheduler's state machine
# alone (see DESIGN.md "MapReduce scheduler"); Shuffle is the intermediate
# record path, ns per pair collected, sorted, merged and decoded, with
# allocations per job that must not grow with the pairs, and RepartitionStage
# one join job of the Hive baseline on top of it (see DESIGN.md "MapReduce
# scheduler", Record path); SnowflakeLowering is host wall and modeled seconds
# of generated snowflake queries as lowered and one step per pass (see
# EXPERIMENTS.md "Snowflake lowering"); ServeHit is a served statement the
# result cache answers, exact or by subsumption, and a lookup nothing cached
# answers, beside 300 entries of another skeleton (see DESIGN.md "Result
# cache"); ReadAll is a whole-file HDFS read of a one-block file, handed
# over in place with an allocation that does not grow with the file, and of
# a four-block one, copied (see DESIGN.md "Scan path"). CI-friendly: short
# benchtime, no external state.
bench:
	$(GO) test -run '^$$' -bench 'Probe|HashBuild|DimBuild|Aggregate|CIFScan|ColumnDecode|SubmitEmptyJob|Dispatch|Shuffle|RepartitionStage|SnowflakeLowering|ServeHit|ReadAll' -benchmem -benchtime 0.2s ./internal/core/ ./internal/colstore/ ./internal/mr/ ./internal/hive/ ./internal/serve/ ./internal/hdfs/ .

# Thirty-five seconds of coverage-guided fuzzing, seven targets at five
# seconds each. FuzzOpenColumnSet and FuzzOpenColumnFile: the column decoders from
# their checked-in corpora (testdata/fuzz, held current by
# TestFuzzSeedCorpus), the node-local dimension copy's column sets and a
# partition's column files. FuzzRCFooter and FuzzRowFooter: a whole RC file
# and a whole row file (every dimension table, every Hive intermediate),
# footer then rows. FuzzDictBuilder: the encoders' dictionary builder held
# to a map-based reference, codes, entries and overflow alike.
# FuzzDecodeRecord: the wire record every row file, spill and broadcast hash
# table is made of. No input may panic them or make them allocate by a count
# the bytes merely claim. FuzzParse: the SQL front end against the SSB
# catalog, seeded with the 13 SSB statements and the malformed ones of its
# tests: no input may panic it, and whatever it accepts must lower.
# Minimising an input that widened coverage is capped at a second, or one
# such input would use up the run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzOpenColumnSet -fuzztime 5s -fuzzminimizetime 1s ./internal/colstore/
	$(GO) test -run '^$$' -fuzz FuzzOpenColumnFile -fuzztime 5s -fuzzminimizetime 1s ./internal/colstore/
	$(GO) test -run '^$$' -fuzz FuzzRCFooter -fuzztime 5s -fuzzminimizetime 1s ./internal/colstore/
	$(GO) test -run '^$$' -fuzz FuzzRowFooter -fuzztime 5s -fuzzminimizetime 1s ./internal/colstore/
	$(GO) test -run '^$$' -fuzz FuzzDictBuilder -fuzztime 5s -fuzzminimizetime 1s ./internal/colstore/
	$(GO) test -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 5s -fuzzminimizetime 1s ./internal/records/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 5s -fuzzminimizetime 1s ./internal/sql/

# One-iteration smoke run of every benchmark in the repo, then the row
# accounting gate: on all 13 SSB queries, every fact row must be attributed
# to exactly one of probed / late-skipped / bloom-skipped / pruned
# (TestAllQueriesMatchReference enforces the invariant and the reference
# answers).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run 'TestAllQueriesMatchReference' -count=1 ./internal/core/

# The before/after file a performance change checks in (BENCH_<w>.json):
# the parent revision, built from a `git archive` of it, against the
# working tree on one workload of the repository benchmark, ten alternating
# pairs on the `selfcheck` seeds, every run's result line and per end-to-end
# metric both sides' medians and quartiles, the pairs won and the verdict of
# benchmark/README.md "Reading a paired comparison". A run lasts
# BENCHMARK.json's run_seconds (20): about ten minutes in all. It changes no file under benchmark/ (a run leaves its
# output in the ignored benchmark/out/).
PARENT ?= HEAD
WORKLOAD ?= hive_shuffle
bench-pairs:
	$(GO) run ./tools/benchpairs -parent $(PARENT) -workload $(WORKLOAD)

# EXPLAIN ANALYZE invariant gate (see DESIGN.md "Observability"): run Q1.1
# with profiling on and fail unless the per-phase exclusive walls sum to the
# query's wall clock, the span tree is rooted at a query span, and nothing
# was orphaned or dropped. -explain-check exits non-zero on violation. The
# same run draws the timeline from the profile, and every map lane (m-N)
# must draw one of its phases (M map, H hash-build, P probe, r read), so a
# lane cannot fall back to a bare task bar.
profile-smoke:
	@out="$$($(GO) run ./cmd/clydesdale -query Q1.1 -factrows 20000 -explain -explain-check -timeline)" || \
		{ echo "$$out"; exit 1; }; echo "$$out" | grep 'explain-check'; \
	lanes="$$(echo "$$out" | grep -E '^  m-[0-9]+ +\|')"; \
	if [ -z "$$lanes" ] || echo "$$lanes" | grep -v '|[^|]*[MHPr][^|]*|'; then \
		echo "timeline: every m-N lane must draw a map phase (M, H, P or r): a timeline is a view of the profile"; exit 1; fi; \
	echo "timeline ok: $$(echo "$$lanes" | wc -l) map lanes draw their phases"

# The repository benchmark's own smoke (benchmark/README.md): all four
# workloads (ssb_star, hive_shuffle, serve_mix, ingest_live) for a quarter
# second each, traced and untraced, every answer held to the oracle, and a
# flipped answer must fail the run. It is what gates the serving path (open
# loop, tenants, result cache) and live ingestion (roll-ins racing a reader
# with the background compactor on; no acknowledged row lost) end to end;
# the numbers come from `go run ./benchmark --workload W --seed N --seconds
# 20 --trace 0|1`. Running the package's tests edits nothing in it.
benchmark-smoke:
	$(GO) test -count=1 -run 'TestSmoke|TestWrongAnswerFailsTheRun' ./benchmark/

# Every example, the SQL front door of the main CLI, its Hive baseline and
# TSV dump, and the Table 1 run no test drives must run to completion (~15 s
# together, most of it Table 1, which runs last). The examples are the only programs that build catalogs
# and queries by hand, so they are what breaks first when the supported
# entry point gets stricter than the tests' fixtures.
examples-smoke:
	@for e in quickstart retail weblogs ablation; do \
		$(GO) run ./examples/$$e >/dev/null || { echo "examples/$$e failed"; exit 1; }; done
	@$(GO) run ./cmd/clydesdale -factrows 20000 -sql "SELECT d_year, p_brand1, SUM(lo_revenue) AS revenue \
		FROM lineorder, date, part, supplier \
		WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey \
		AND p_category = 'MFGR#12' AND s_region = 'AMERICA' \
		GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1" >/dev/null || { echo "clydesdale -sql failed"; exit 1; }
	@$(GO) run ./cmd/clydesdale -query Q3.1 -hive mapjoin -factrows 20000 >/dev/null || { echo "clydesdale -hive failed"; exit 1; }
	@d="$$(mktemp -d)" && $(GO) run ./cmd/clydesdale -factrows 20000 -dump "$$d" >/dev/null && rm -r "$$d" || { echo "clydesdale -dump failed"; exit 1; }
	@$(GO) run ./cmd/benchssb -figure table1 -dfsio-mb 1 >/dev/null || { echo "benchssb -figure table1 failed"; exit 1; }
	@echo "examples-smoke ok"

# Non-test Go lines per package, the repository benchmark excluded: the
# number a simplification is judged by.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | \
		xargs wc -l | awk '$$2 != "total" { n = split($$2, p, "/"); d = p[2]; for (i = 3; i < n; i++) d = d "/" p[i]; c[d] += $$1; t += $$1 } \
		END { for (d in c) printf "%6d %s\n", c[d], d; printf "%6d total\n", t }' | sort -k2

clean:
	$(GO) clean ./...
