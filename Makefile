# Convenience targets for the MSSG reproduction.

PYTHON ?= python

.PHONY: install test test-strict check-cache-factory check-failover-owner check-features-owner check-envelope-owner check-chunk-owner check-id-boundary check-census-owner check-combine-owner check-commit-owner check-repair-owner check-stream-owner lint bench bench-quick bench-smoke bench-ranks examples figures loc reach clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-strict: check-cache-factory check-failover-owner check-features-owner check-envelope-owner check-chunk-owner check-id-boundary check-census-owner check-combine-owner check-commit-owner check-repair-owner check-stream-owner  # the feature suites once more, warnings promoted to errors
	PYTHONPATH=src $(PYTHON) -m pytest -q -W error \
		tests/test_fault_paths.py tests/test_direction.py tests/test_bitset.py \
		tests/test_integrity.py tests/test_commit.py tests/test_scheduler_concurrent.py \
		tests/test_vertexprog.py tests/test_analyses.py tests/test_compression.py \
		tests/test_streaming.py \
		tests/test_grdb_ingest.py tests/test_batch_expand.py \
		tests/test_failover_protocol.py tests/test_adjacency_batch.py \
		tests/test_close_refcount.py tests/test_varint_reference.py \
		tests/test_stream_replay.py tests/test_analysis_axis.py \
		tests/test_inmemory_staging.py tests/test_visited_media.py \
		tests/test_mysql_golden.py tests/test_grdb_golden.py tests/test_bdb_golden.py \
		tests/test_grdb.py tests/test_grdb_walk_reference.py tests/test_grdb_append_reference.py \
		tests/test_storage_differential.py tests/test_reingest.py \
		tests/test_cli.py tests/test_services.py tests/test_bfs.py tests/test_metadata.py

check-cache-factory:  # block caches must come from make_block_cache, never direct construction
	@offenders=$$(grep -rln 'LRUBlockCache(' src/repro --include='*.py' \
		| grep -v 'storage/blockcache.py' || true); \
	if [ -n "$$offenders" ]; then \
		echo "direct LRUBlockCache construction (use make_block_cache):"; \
		echo "$$offenders"; exit 1; \
	fi

check-failover-owner:  # only bfs/failover.py reads a FaultTolerance field, writes an FTState field, catches or tells apart device errors, or decides who serves a partition (serve_once); only services/declustering.py probes a declusterer's type or attributes
	@offenders=$$( { \
		grep -rnE 'ft\.cfg\.|ft\.(self_dead|dead|partial|dropped|failovers|corrupt|device_failed|timed_out)[[:space:]]*(=[^=]|\+=|\|=|\.add)' \
			src/repro --include='*.py'; \
		grep -rnE 'isinstance\(.*CorruptBlockError\)' src/repro/bfs src/repro/services/vertexprog.py; \
		grep -rnE 'except[^:]*(DeviceFailedError|CorruptBlockError)' src/repro/bfs src/repro/services/query.py \
			src/repro/services/analyses.py src/repro/services/vertexprog.py --include='*.py'; \
		grep -rnE 'RetryRounds|live_routes\(|route_to_replicas\(|\.serves\(|flag_unserved\(' src/repro --include='*.py'; \
	} | grep -v '^src/repro/bfs/failover\.py:' || true); \
	if [ -n "$$offenders" ]; then \
		echo "failover policy outside bfs/failover.py (use FTState.start / guard / route_or_drop / serve_once / FTState.fill):"; \
		echo "$$offenders"; exit 1; \
	fi; \
	offenders=$$(grep -rnE 'getattr\([^)]*declusterer|isinstance\([^)]*ReplicatedDeclusterer' src/repro --include='*.py' \
		| grep -v '^src/repro/services/declustering\.py:' || true); \
	if [ -n "$$offenders" ]; then \
		echo "declusterer probed outside services/declustering.py (every Declusterer answers replication / replica_chain / chain_map):"; \
		echo "$$offenders"; exit 1; \
	fi

check-envelope-owner:  # only bfs/rankprog.py makes a level mark, takes a rank program's edges_scanned span or charges a sweep's per-entry visits; query.py builds a BFSConfig once
	@offenders=$$( { \
		grep -rnE 'LevelMark\(|"level-mark"' src/repro --include='*.py'; \
		grep -rnE 'edges_scanned[[:space:]]*-[^=]' src/repro/bfs src/repro/services --include='*.py' \
			| grep -v '^src/repro/services/scheduler\.py:.*st\["edges"\] +='; \
		grep -rnE '\*[[:space:]]*[a-z_.]*edge_visit_seconds|edge_visit_seconds[[:space:]]*\*' \
			src/repro/bfs src/repro/services --include='*.py'; \
	} | grep -v '^src/repro/bfs/rankprog\.py:' || true); \
	if [ -n "$$offenders" ]; then \
		echo "envelope concern outside bfs/rankprog.py (use level_mark / span / sweep):"; \
		echo "$$offenders"; exit 1; \
	fi; \
	n=$$(grep -c 'BFSConfig(' src/repro/services/query.py); \
	if [ "$$n" != 1 ]; then \
		echo "services/query.py spells BFSConfig( $$n times (use QueryService._bfs_config)"; exit 1; \
	fi

check-chunk-owner:  # only graphdb/chunked.py names the Figure 4.3 chunk geometry (BerkeleyDB and MySQL reach it through ChunkedGraphDB)
	@offenders=$$(grep -rnE '\bCHUNK_(ENTRIES|BYTES)\b' src/repro --include='*.py' \
		| grep -v '^src/repro/graphdb/chunked\.py:' || true); \
	if [ -n "$$offenders" ]; then \
		echo "chunk geometry outside graphdb/chunked.py (subclass ChunkedGraphDB):"; \
		echo "$$offenders"; exit 1; \
	fi

check-id-boundary:  # only graphdb/interface.py (and metadata.py's level maps) tests a vertex id's sign or range on a read: GraphDB hands every hook in-space ids
	@offenders=$$(grep -rnE '\b(vertex|vertices|vs|v|gid|gids|wanted|fringe|lo|hi|ids?)\b[[:space:]]*(<|>=)[[:space:]]*0\b|\b0[[:space:]]*<=?[[:space:]]*(int\()?(vertex|vertices|vs|v|gid|gids|wanted|fringe|lo|hi|ids?)\b|max\([a-z_]+,[[:space:]]*0\)|\.view\(np\.uint64\)|<=?[[:space:]]*len\(self\._xadj\)|\b(vertex|vertices|vs|v|gid|gids|wanted|fringe|ids?)\b[^=]*(<|>)=?[[:space:]]*MAX_VERTEX_ID' \
		src/repro/graphdb --include='*.py' | grep -vE '^src/repro/graphdb/(interface|metadata)\.py:' || true); \
	if [ -n "$$offenders" ]; then \
		echo "id sign/range test in a backend (override GraphDB._id_bound instead):"; \
		echo "$$offenders"; exit 1; \
	fi

check-census-owner:  # only graphdb/interface.py names the out-degree census or defines the source enumeration (a restoring store rebuilds the census at open); only graphdb/ calls it (everything else calls local_vertices)
	@offenders=$$( { \
		grep -rnE '\b_degree\b' src/repro --include='*.py' | grep -v '^src/repro/graphdb/interface\.py:'; \
		grep -rnE '\b_local_vertices\(' src/repro --include='*.py' | grep -v '^src/repro/graphdb/'; \
		grep -rnE 'def[[:space:]]+_local_vertices\b|self\.restored[[:space:]]*=' src/repro --include='*.py' \
			| grep -v '^src/repro/graphdb/interface\.py:'; \
	} || true); \
	if [ -n "$$offenders" ]; then \
		echo "census or source enumeration outside graphdb/interface.py (use degree_many / local_vertices; rebuild with _census_from_storage):"; \
		echo "$$offenders"; exit 1; \
	fi

check-combine-owner:  # only services/vertexprog.py::_combine_posts sorts or scatter-reduces posted triplets (np.lexsort, ufunc.at); streaming.py's lexsort orders an edge batch
	@offenders=$$(awk 'FNR == 1 { fn = "" } /^(def|class) / { fn = $$2 } \
		/np\.lexsort|\.at\(/ && fn !~ /^_combine_posts\(/ { print FILENAME ":" FNR ": " $$0 }' \
		src/repro/services/*.py | grep -vE '^src/repro/services/streaming\.py:[0-9]+: +edges = edges\[np\.lexsort\(\(edges\[' || true); \
	if [ -n "$$offenders" ]; then \
		echo "posted triplets combined outside services/vertexprog.py::_combine_posts (call it):"; \
		echo "$$offenders"; exit 1; \
	fi

check-commit-owner:  # only storage/commit.py (commit roots, record frames), storage/integrity.py (device frames) and grdb/superblock.py compute a CRC; no store reads another's commit counter (GraphDB.commit_token answers)
	@offenders=$$( { \
		grep -rn 'zlib\.crc32' src/repro --include='*.py' \
			| grep -vE '^src/repro/(storage/commit|storage/integrity|graphdb/grdb/superblock)\.py:'; \
		grep -rnE '_wal_seq|base_commit_token' src/ --include='*.py'; \
	} || true); \
	if [ -n "$$offenders" ]; then \
		echo "CRC or commit counter outside storage/commit.py (use CommitRoot / frame_record; ask db.commit_token()):"; \
		echo "$$offenders"; exit 1; \
	fi

check-repair-owner:  # one recovery planner: MSSG._restore is the one place that installs a chain map (set_chains outside services/declustering.py) and runs a copy (_copy_partitions)
	@for call in 'set_chains(' '_copy_partitions('; do \
		n=$$(grep -rnF "$$call" src/ --include='*.py' | grep -vE 'def [a-z_]+\(|^src/repro/services/declustering\.py:' | wc -l); \
		if [ "$$n" != 1 ]; then \
			echo "$$call has $$n call sites in src/ (recovery goes through MSSG._restore):"; \
			grep -rnF "$$call" src/ --include='*.py' | grep -vE 'def [a-z_]+\(|^src/repro/services/declustering\.py:'; exit 1; \
		fi; \
	done

check-stream-owner:  # one owner per streaming fact: outside services/streaming.py nothing writes a published horizon or appends to a delta log or an overlay; inside it only StreamingState.append does, one call each
	@pat='([^a-z_]log|logs\[[^]]*\]|overlay|live_log\([^)]*\))\.append\('; \
	offenders=$$( { \
		grep -rnE "\.published[[:space:]]*(=[^=]|\+=)|$$pat" src/ --include='*.py' \
			| grep -v '^src/repro/services/streaming\.py:'; \
		awk -v pat="$$pat" '/^class / { cls = $$2 } /^    def / { fn = $$2 } \
			$$0 ~ pat && !(cls ~ /^StreamingState/ && fn ~ /^append\(/) { print FILENAME ":" FNR ": " $$0 }' \
			src/repro/services/streaming.py; \
	} || true); \
	if [ -n "$$offenders" ]; then \
		echo "published horizon or delta-log / overlay append outside StreamingState.append:"; \
		echo "$$offenders"; exit 1; \
	fi; \
	n=$$(grep -cE "$$pat" src/repro/services/streaming.py); \
	if [ "$$n" != 2 ]; then \
		echo "StreamingState.append makes $$n delta-log / overlay appends (one each)"; exit 1; \
	fi

check-features-owner:  # only features.py spells a feature knob as a parameter or field (per-query overrides are listed in the test)
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_features.py -k no_knob_is_declared_outside_features

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-quick:  # smaller workloads for a fast shape check
	REPRO_BENCH_SCALE=0.4 REPRO_BENCH_QUERIES=6 $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-smoke:  # the batched-I/O + direction ablations, CI-sized (ratio bands need full scale)
	REPRO_BENCH_SCALE=0.4 PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/bench_ablation_batchio.py benchmarks/bench_ablation_direction.py \
		benchmarks/bench_ingest_failover.py benchmarks/bench_concurrent_queries.py \
		benchmarks/bench_ablation_compression.py benchmarks/bench_streaming_ingest.py \
		--benchmark-only

bench-ranks:  # wall time of one Array BFS at 4 / 16 / 32 / 64 back-ends (not gated)
	$(PYTHON) benchmarks/rank_scaling.py

lint:  # requires ruff (pip install ruff)
	$(PYTHON) -m ruff check src/

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/semantic_graph_analysis.py
	PYTHONPATH=src $(PYTHON) examples/backend_comparison.py
	PYTHONPATH=src $(PYTHON) examples/massive_scale_projection.py

loc:  # src/ line count and code-only count (no comments, blank lines or docstrings)
	$(PYTHON) tools/loc.py src

reach:  # function lines reached by production runs, by tests only, by neither (minutes; not gated)
	$(PYTHON) tools/reach.py

figures:  # regenerate every table/figure via the CLI, in one process (Figs 5.7 / 5.9 reuse the sweeps of 5.6 / 5.8)
	PYTHONPATH=src $(PYTHON) -m repro experiment \
		table5.1 fig5.1 fig5.2 fig5.3 fig5.4 fig5.5 fig5.6 fig5.7 fig5.8 fig5.9

clean:  # untracked outputs only: benchmarks/results/ holds committed result files
	rm -rf benchmarks/twoclock/out .benchmarks .pytest_cache test_output.txt bench_output.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
