"""Query planning: predicates, plans, pruned serving, and the parity contract.

The load-bearing invariant: a pruned run over any predicate — warm store
or cold text path, any worker count — is bit-identical to the unpruned
run filtered after the fact.  Everything else (column pruning, zone-map
chunk skipping, whole-file skipping) is an optimization that must never
change an answer.
"""

import dataclasses

import numpy as np
import pytest

from repro.engine import (
    ALL_COLUMNS,
    Chunk,
    ColumnPrunedError,
    LoadIntensityAnalyzer,
    QueryPlan,
    RowPredicate,
    SpatialAnalyzer,
    StreamingProfileAnalyzer,
    TemporalAnalyzer,
    analyzer_columns,
    analyzer_predicate,
    apply_plan,
    apply_predicate,
    plan_for,
    read_dataset_dir_chunked,
    run,
    run_dataset,
)
from repro.engine.plan import intersect_predicates, union_predicates
from repro.obs import collecting
from repro.store import StoreConfig, ingest_dir
from repro.trace import TraceDataset, write_dataset_dir

BS = 4096
#: Holds every sample of the test fleet: reservoirs become exact, so
#: pruned-vs-filtered parity can be asserted bit for bit even though the
#: two runs see different chunk layouts.
EXACT_RESERVOIR = 1 << 20


def _analyzers(reservoir_size=EXACT_RESERVOIR):
    return [
        LoadIntensityAnalyzer(peak_interval=10.0, reservoir_size=reservoir_size),
        SpatialAnalyzer(block_size=BS),
        TemporalAnalyzer(block_size=BS, reservoir_size=reservoir_size),
        StreamingProfileAnalyzer(block_size=BS, reservoir_size=reservoir_size),
    ]


def _as_comparable(result):
    return {
        name: {vid: dataclasses.asdict(r) for vid, r in per_vol.items()}
        for name, per_vol in result.per_volume.items()
    }


def _filtered(dataset, predicate):
    """The reference: filter a parsed dataset after the fact.

    Mirrors what the pruned path serves — volumes the predicate excludes
    (or leaves with zero rows) are omitted entirely.
    """
    out = TraceDataset(dataset.name)
    for vid in dataset.volume_ids():
        if not predicate.allows_volume(vid):
            continue
        trace = dataset[vid]
        if len(trace) == 0:
            continue
        mask = predicate.row_mask(trace.timestamps, trace.is_write)
        kept = trace if mask is None else trace.select(mask)
        if len(kept):
            out.add(kept)
    return out


@pytest.fixture(scope="module")
def ali_dir(tmp_path_factory, tiny_ali):
    out = tmp_path_factory.mktemp("plan_ali")
    write_dataset_dir(tiny_ali, str(out), fmt="alicloud")
    return str(out)


@pytest.fixture(scope="module")
def warm_store(ali_dir, tmp_path_factory):
    store = StoreConfig(dir=str(tmp_path_factory.mktemp("plan_store")))
    ingest_dir(ali_dir, fmt="alicloud", store_dir=store.dir)
    return store


@pytest.fixture(scope="module")
def parsed(ali_dir):
    """The text files parsed back (timestamps round-trip through text)."""
    return read_dataset_dir_chunked(ali_dir, fmt="alicloud")


class TestRowPredicate:
    def test_null_predicate(self):
        pred = RowPredicate()
        assert pred.is_null()
        assert pred.row_mask(np.array([1.0]), np.array([True])) is None
        assert pred.allows_volume("anything")

    def test_window_is_half_open(self):
        pred = RowPredicate(since=1.0, until=3.0)
        ts = np.array([0.5, 1.0, 2.0, 3.0])
        mask = pred.row_mask(ts, np.zeros(4, dtype=bool))
        assert mask.tolist() == [False, True, True, False]

    def test_op_and_volume_filters(self):
        pred = RowPredicate(volumes=("a", "b"), op="write")
        assert pred.allows_volume("a") and not pred.allows_volume("c")
        mask = pred.row_mask(np.zeros(3), np.array([True, False, True]))
        assert mask.tolist() == [True, False, True]

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            RowPredicate(op="delete")

    def test_volumes_normalized(self):
        pred = RowPredicate(volumes=["b", "a", "b"])
        assert pred.volumes == ("a", "b")

    def test_overlaps_window(self):
        pred = RowPredicate(since=10.0, until=20.0)
        assert pred.overlaps_window(15.0, 30.0)
        assert pred.overlaps_window(0.0, 10.5)
        assert not pred.overlaps_window(20.0, 30.0)  # window is half-open
        assert not pred.overlaps_window(0.0, 9.0)

    def test_matches_op_mix(self):
        assert not RowPredicate(op="write").matches_op_mix(10, 0)
        assert not RowPredicate(op="read").matches_op_mix(10, 10)
        assert RowPredicate(op="read").matches_op_mix(10, 3)

    def test_intersect_op_conflict_selects_nothing(self):
        merged = intersect_predicates(
            RowPredicate(op="read"), RowPredicate(op="write")
        )
        assert merged.volumes == ()
        assert not merged.allows_volume("v")

    def test_intersect_tightens_window(self):
        merged = intersect_predicates(
            RowPredicate(since=0.0, until=50.0, volumes=("a", "b")),
            RowPredicate(since=10.0, volumes=("b", "c")),
        )
        assert merged.since == 10.0 and merged.until == 50.0
        assert merged.volumes == ("b",)

    def test_union_widens_and_bails_on_none(self):
        union = union_predicates(
            [RowPredicate(since=5.0, until=10.0), RowPredicate(since=0.0, until=20.0)]
        )
        assert union.since == 0.0 and union.until == 20.0
        assert union_predicates([RowPredicate(since=5.0), None]) is None


class TestQueryPlan:
    def test_columns_canonicalized(self):
        plan = QueryPlan(columns=("is_write", "timestamps"))
        assert plan.columns == ("timestamps", "is_write")

    def test_all_columns_collapse_to_none(self):
        assert QueryPlan(columns=ALL_COLUMNS).columns is None
        assert QueryPlan(columns=ALL_COLUMNS).is_noop()

    def test_load_columns_includes_predicate_inputs(self):
        plan = QueryPlan(
            columns=("offsets",), predicate=RowPredicate(since=1.0, op="write")
        )
        assert set(plan.load_columns()) == {"timestamps", "offsets", "is_write"}

    def test_plan_for_unions_declarations(self):
        plan = plan_for([LoadIntensityAnalyzer(), SpatialAnalyzer()], None)
        assert set(plan.columns) == {"timestamps", "offsets", "sizes", "is_write"}

    def test_plan_for_undeclared_analyzer_disables_pruning(self):
        class Opaque:
            name = "opaque"

        plan = plan_for([LoadIntensityAnalyzer(), Opaque()], None)
        assert plan is None or plan.columns is None

    def test_plan_for_pushes_down_shared_predicate(self):
        pred = RowPredicate(since=3.0)
        plan = plan_for([LoadIntensityAnalyzer()], pred)
        assert plan.predicate == pred

    def test_accessors_validate(self):
        analyzer = LoadIntensityAnalyzer()
        assert "timestamps" in analyzer_columns(analyzer)
        assert analyzer_predicate(analyzer) is None

        class Bad:
            name = "bad"
            required_columns = ("no_such_column",)

        with pytest.raises(ValueError):
            analyzer_columns(Bad())


class TestLazyChunk:
    def _chunk(self):
        return Chunk(
            "v",
            timestamps=np.array([1.0, 2.0, 3.0]),
            offsets=np.array([0, 4096, 8192]),
            sizes=np.array([512, 512, 512]),
            is_write=np.array([True, False, True]),
        )

    def test_pruned_access_raises(self):
        chunk = self._chunk()
        chunk.prune_columns(("timestamps", "is_write"))
        assert chunk.timestamps is not None
        with pytest.raises(ColumnPrunedError, match="required_columns"):
            chunk.offsets

    def test_has_and_present_columns(self):
        chunk = self._chunk()
        assert chunk.has_column("offsets")
        dropped = chunk.prune_columns(("timestamps",))
        assert dropped == 3  # offsets, sizes, is_write
        assert not chunk.has_column("offsets")
        assert chunk.present_columns() == ("timestamps",)

    def test_thunk_columns_materialize_once(self):
        calls = []

        def load():
            calls.append(1)
            return np.array([1.0, 2.0])

        chunk = Chunk("v", timestamps=load, n_rows=2)
        assert chunk.timestamps.tolist() == [1.0, 2.0]
        assert chunk.timestamps.tolist() == [1.0, 2.0]
        assert len(calls) == 1

    def test_apply_predicate_filters_rows(self):
        kept = apply_predicate(self._chunk(), RowPredicate(since=2.0))
        assert kept.timestamps.tolist() == [2.0, 3.0]
        assert apply_predicate(self._chunk(), RowPredicate(until=0.0)) is None
        assert apply_predicate(self._chunk(), RowPredicate(volumes=("w",))) is None

    def test_apply_plan_counts_and_prunes(self):
        plan = QueryPlan(columns=("timestamps",), predicate=RowPredicate(since=2.0))
        with collecting() as registry:
            kept = apply_plan(self._chunk(), plan)
            assert kept.timestamps.tolist() == [2.0, 3.0]
            assert not kept.has_column("offsets")
            assert registry.counter("plan.rows_served").value == 2
            assert registry.counter("plan.rows_pruned").value == 1


WINDOW = RowPredicate(since=50.0, until=150.0)
OP_ONLY = RowPredicate(op="write")
COMBINED = RowPredicate(since=50.0, until=150.0, op="write")

PREDICATES = {
    "window": WINDOW,
    "op": OP_ONLY,
    "combined": COMBINED,
}


def _volume_predicate(parsed):
    ids = sorted(parsed.volume_ids())
    return RowPredicate(volumes=tuple(ids[::3]))


class TestPrunedEqualsFiltered:
    """The contract, end to end: warm store and cold text, workers 1 and 4."""

    @pytest.mark.parametrize("name", sorted(PREDICATES))
    @pytest.mark.parametrize("workers", [1, 4])
    def test_warm_store(self, ali_dir, warm_store, parsed, name, workers):
        predicate = PREDICATES[name]
        ref = run_dataset(_filtered(parsed, predicate), _analyzers())
        got = run(
            ali_dir, _analyzers(), chunk_size=257, workers=workers,
            store=warm_store, predicate=predicate,
        )
        assert _as_comparable(got) == _as_comparable(ref)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_warm_store_volume_predicate(self, ali_dir, warm_store, parsed, workers):
        predicate = _volume_predicate(parsed)
        ref = run_dataset(_filtered(parsed, predicate), _analyzers())
        got = run(
            ali_dir, _analyzers(), chunk_size=257, workers=workers,
            store=warm_store, predicate=predicate,
        )
        assert _as_comparable(got) == _as_comparable(ref)

    @pytest.mark.parametrize("name", sorted(PREDICATES))
    def test_cold_text_path(self, ali_dir, parsed, name):
        # No store: the predicate applies inside the text chunker.
        predicate = PREDICATES[name]
        ref = run_dataset(_filtered(parsed, predicate), _analyzers())
        got = run(
            ali_dir, _analyzers(), chunk_size=257, workers=1, predicate=predicate,
        )
        assert _as_comparable(got) == _as_comparable(ref)

    def test_cold_text_path_workers4(self, ali_dir, parsed):
        predicate = COMBINED
        ref = run_dataset(_filtered(parsed, predicate), _analyzers())
        got = run(
            ali_dir, _analyzers(), chunk_size=257, workers=4, predicate=predicate,
        )
        assert _as_comparable(got) == _as_comparable(ref)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_read_dataset_dir_chunked_predicate(
        self, ali_dir, warm_store, parsed, workers
    ):
        predicate = COMBINED
        ref = _filtered(parsed, predicate)
        got = read_dataset_dir_chunked(
            ali_dir, fmt="alicloud", chunk_size=257, workers=workers,
            store=warm_store, predicate=predicate,
        )
        assert sorted(got.volume_ids()) == sorted(ref.volume_ids())
        for vid in ref.volume_ids():
            a, b = ref[vid], got[vid]
            for col in ("timestamps", "offsets", "sizes", "is_write"):
                assert np.array_equal(getattr(a, col), getattr(b, col)), (vid, col)

    def test_run_dataset_predicate(self, tiny_ali):
        predicate = WINDOW
        ref = run_dataset(_filtered(tiny_ali, predicate), _analyzers())
        got = run_dataset(tiny_ali, _analyzers(), predicate=predicate)
        assert _as_comparable(got) == _as_comparable(ref)

    def test_planner_counters_populate_on_warm_store(
        self, ali_dir, warm_store, parsed
    ):
        predicate = _volume_predicate(parsed)
        with collecting() as registry:
            run(
                ali_dir, _analyzers(), chunk_size=257,
                store=warm_store, predicate=predicate,
            )
            served = registry.counter("plan.rows_served").value
            pruned = registry.counter("plan.rows_pruned").value
            skipped = registry.counter("plan.files_skipped").value
        kept = sum(len(parsed[v]) for v in predicate.volumes)
        total = sum(len(parsed[v]) for v in parsed.volume_ids())
        assert served == kept
        assert pruned == total - kept
        # Single-volume files for excluded volumes are skipped whole.
        assert skipped > 0


class TestAnalyzerOwnPredicate:
    def test_residual_applies_per_analyzer(self, tiny_ali):
        # One analyzer asks for writes only; its neighbor sees every row.
        write_only = LoadIntensityAnalyzer(
            peak_interval=10.0, reservoir_size=EXACT_RESERVOIR,
            row_predicate=RowPredicate(op="write"),
        )
        neighbor = StreamingProfileAnalyzer(
            block_size=BS, reservoir_size=EXACT_RESERVOIR
        )
        got = run_dataset(tiny_ali, [write_only, neighbor])

        ref_writes = run_dataset(
            _filtered(tiny_ali, RowPredicate(op="write")),
            [LoadIntensityAnalyzer(peak_interval=10.0, reservoir_size=EXACT_RESERVOIR)],
        )
        ref_all = run_dataset(
            tiny_ali,
            [StreamingProfileAnalyzer(block_size=BS, reservoir_size=EXACT_RESERVOIR)],
        )
        want = {
            vid: dataclasses.asdict(r)
            for vid, r in ref_writes.analyzer("load_intensity").items()
        }
        assert {
            vid: dataclasses.asdict(r)
            for vid, r in got.analyzer("load_intensity").items()
        } == want
        assert {
            vid: dataclasses.asdict(r)
            for vid, r in got.analyzer("streaming_profile").items()
        } == {
            vid: dataclasses.asdict(r)
            for vid, r in ref_all.analyzer("streaming_profile").items()
        }

    def test_undeclared_column_access_raises(self, tiny_ali):
        class TimestampsOnly:
            name = "timestamps_only"
            required_columns = ("timestamps",)

            def init_state(self, volume_id):
                return []

            def consume(self, state, chunk):
                state.append(float(chunk.offsets.sum()))  # undeclared!
                return state

            def merge(self, a, b):
                return a + b

            def finalize(self, state):
                return sum(state)

        with pytest.raises(ColumnPrunedError):
            run_dataset(tiny_ali, [TimestampsOnly()])


class TestEmptyFinalize:
    """Satellite: every built-in finalizes an untouched state cleanly."""

    @pytest.mark.parametrize(
        "analyzer",
        [
            LoadIntensityAnalyzer(),
            SpatialAnalyzer(block_size=BS),
            TemporalAnalyzer(block_size=BS),
            StreamingProfileAnalyzer(block_size=BS),
        ],
        ids=lambda a: a.name,
    )
    def test_finalize_empty_state(self, analyzer):
        result = analyzer.finalize(analyzer.init_state("empty-vol"))
        assert result.volume_id == "empty-vol"
        for attr in ("n_requests", "interarrival_percentiles", "size_percentiles"):
            if hasattr(result, attr):
                value = getattr(result, attr)
                assert value == 0 or value == {}, attr

    def test_predicate_matching_nothing_yields_no_volumes(self, tiny_ali):
        got = run_dataset(
            tiny_ali, _analyzers(), predicate=RowPredicate(until=-1.0)
        )
        assert got.per_volume["load_intensity"] == {}


class TestCliFilterFlags:
    def test_analyze_flags_parse(self):
        from repro.cli import _engine_kwargs, build_parser

        args = build_parser().parse_args(
            ["analyze", "d", "--since", "5", "--until", "9.5", "--volumes", "a, b,,c"]
        )
        pred = _engine_kwargs(args)["predicate"]
        assert pred == RowPredicate(since=5.0, until=9.5, volumes=("a", "b", "c"))

    def test_findings_keeps_volume_count_flag(self):
        from repro.cli import _engine_kwargs, build_parser

        args = build_parser().parse_args(
            ["findings", "--volumes", "60", "--only-volumes", "x,y", "--since", "2"]
        )
        assert args.volumes == 60
        assert _engine_kwargs(args)["predicate"] == RowPredicate(since=2.0, volumes=("x", "y"))

    def test_no_flags_means_no_predicate(self):
        from repro.cli import _engine_kwargs, build_parser

        args = build_parser().parse_args(["analyze", "d"])
        assert _engine_kwargs(args)["predicate"] is None

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["analyze", "d", "--volumes", ","], "--volumes"),
            (["analyze", "d", "--volumes", " , "], "--volumes"),
            (["stream-analyze", "d", "--volumes", ""], "--volumes"),
            (["findings", "--ali-dir", "a", "--msrc-dir", "m", "--only-volumes", ","],
             "--only-volumes"),
            (["analyze", "d", "--since", "nan"], "--since"),
            (["report", "d", "--until", "inf"], "--until"),
            (["analyze", "d", "--since", "-inf"], "--since"),
            (["analyze", "d", "--since", "10", "--until", "5"], "--since"),
            (["findings", "--since", "3", "--until", "3"], "--since"),
        ],
    )
    def test_degenerate_filter_flags_rejected(self, argv, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
