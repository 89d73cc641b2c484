"""The run-time contract of every engine analyzer.

A pooled run ships each analyzer and its states across processes, and a
planned run prunes every column no analyzer declared.  So every class in
``src/repro`` that defines the four fold operations must:

* survive ``pickle`` with a fresh, a consumed and a merged state, each
  copy folding on and finalizing exactly like the original;
* give the same results with its declared ``required_columns`` (the
  undeclared columns pruned) as with nothing pruned, on text and on a
  warm store, for AliCloud and for MSRC input (which carries
  ``response_times``, so something is pruned).

The analyzers are found by scanning the source, not listed by hand, so a
new one is checked the day it lands.  The two drills at the end inject
the defects these checks exist for and assert that the checks fail.
"""

import ast
import copy
import dataclasses
import importlib
import os
import pickle

import numpy as np
import pytest

from conftest import make_trace
from repro.engine import ALL_COLUMNS, ColumnPrunedError, list_trace_files, run_files
from repro.engine.analyzer import Analyzer
from repro.engine.analyzers import DEFAULT_RESERVOIR_SIZE, TemporalAnalyzer
from repro.engine.chunks import chunks_from_trace
from repro.obs import collecting
from repro.store import StoreConfig, ingest_dir
from repro.trace import write_dataset_dir

SRC = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
FOLD_METHODS = frozenset({"init_state", "consume", "merge", "finalize"})


def _discover_analyzers():
    """``{dotted name: class}`` of every top-level class in ``src/repro``
    that defines all four fold operations (the protocol itself excluded)."""
    found = {}
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            names = [
                node.name
                for node in tree.body
                if isinstance(node, ast.ClassDef)
                and FOLD_METHODS <= {s.name for s in node.body if isinstance(s, ast.FunctionDef)}
            ]
            if not names:
                continue
            module_name = os.path.relpath(path, SRC)[: -len(".py")].replace(os.sep, ".")
            module_name = module_name.rsplit(".__init__", 1)[0]
            module = importlib.import_module(module_name)
            for name in names:
                cls = getattr(module, name)
                if cls is not Analyzer:
                    found[f"{module_name}.{name}"] = cls
    return found


ANALYZERS = _discover_analyzers()
analyzer_classes = pytest.mark.parametrize("cls", list(ANALYZERS.values()), ids=list(ANALYZERS))


def _comparable(value):
    """A structural form of a result or state that ``==`` compares fully:
    arrays by dtype, shape and bytes, floats by ``repr`` (NaN equals NaN),
    objects by their fields."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", repr(float(value)))
    if isinstance(value, dict):
        return {key: _comparable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_comparable(item) for item in value]
    if dataclasses.is_dataclass(value):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return (type(value).__name__, _comparable(fields))
    slots = getattr(type(value), "__slots__", None)
    if slots:
        return (type(value).__name__, {s: _comparable(getattr(value, s)) for s in slots})
    if hasattr(value, "__dict__"):
        return (type(value).__name__, _comparable(vars(value)))
    return value


def assert_pickle_round_trip(analyzer, trace, chunk_size=1000):
    """A fresh, a consumed and a merged state each survive ``pickle``:
    the copy folds the rest of the trace and finalizes like the original."""
    chunks = list(chunks_from_trace(trace, chunk_size))
    half = len(chunks) // 2

    def fold(state, parts):
        for chunk in parts:
            state = analyzer.consume(state, chunk)
        return state

    def check(state, rest):
        restored = pickle.loads(pickle.dumps(state))
        want = _comparable(analyzer.finalize(fold(state, rest)))
        assert _comparable(analyzer.finalize(fold(restored, rest))) == want

    vid = trace.volume_id
    check(analyzer.init_state(vid), chunks)
    check(fold(analyzer.init_state(vid), chunks[:half]), chunks[half:])
    earlier = fold(analyzer.init_state(vid), chunks[:half])
    later = fold(analyzer.init_state(vid), chunks[half:])
    check(analyzer.merge(earlier, later), [])


def assert_pruning_changes_nothing(analyzer, files, fmt, store=None):
    """The declared-columns run equals the run with nothing pruned;
    returns how many columns the declared run pruned."""
    unpruned = copy.copy(analyzer)
    unpruned.required_columns = None
    with collecting() as registry:
        declared = run_files(files, [analyzer], fmt=fmt, store=store)
    everything = run_files(files, [unpruned], fmt=fmt, store=store)
    assert _comparable(declared.per_volume) == _comparable(everything.per_volume)
    return registry.snapshot()["counters"].get("plan.columns_pruned", 0)


@pytest.fixture(scope="module")
def long_trace():
    """One volume past the reservoirs' capacity, with heavy block reuse,
    so every reservoir overflows and builds its lazy generator."""
    rng = np.random.default_rng(27)
    n = 3 * DEFAULT_RESERVOIR_SIZE
    return make_trace(
        "long",
        timestamps=np.cumsum(rng.exponential(0.01, n)),
        offsets=rng.integers(0, 512, n) * 4096,
        sizes=rng.integers(1, 5, n) * 4096,
        is_write=rng.random(n) < 0.5,
    )


@pytest.fixture(scope="module", params=["alicloud", "msrc"])
def fleet(request, tmp_path_factory):
    """``(fmt, trace files, warm store)`` of one small fleet per format."""
    fmt = request.param
    dataset = request.getfixturevalue("tiny_ali" if fmt == "alicloud" else "tiny_msrc")
    out = tmp_path_factory.mktemp(f"contract_{fmt}")
    write_dataset_dir(dataset, str(out), fmt=fmt)
    store = StoreConfig(dir=str(tmp_path_factory.mktemp(f"contract_{fmt}_store")))
    ingest_dir(str(out), fmt=fmt, store_dir=store.dir)
    return fmt, list_trace_files(str(out)), store


def test_scan_finds_the_known_analyzers():
    assert {
        "repro.engine.analyzers.StreamingProfileAnalyzer",
        "repro.engine.analyzers.TemporalAnalyzer",
        "repro.engine.chunks._ColumnCollector",
    } <= set(ANALYZERS)


@analyzer_classes
def test_states_survive_pickle(cls, long_trace):
    assert len(long_trace) > DEFAULT_RESERVOIR_SIZE
    assert_pickle_round_trip(cls(), long_trace)


@analyzer_classes
@pytest.mark.parametrize("warm", [False, True], ids=["text", "store"])
def test_pruning_undeclared_columns_changes_nothing(cls, fleet, warm):
    fmt, files, store = fleet
    analyzer = cls()
    pruned = assert_pruning_changes_nothing(analyzer, files, fmt, store if warm else None)
    declared = getattr(analyzer, "required_columns", None)
    if fmt == "msrc" and declared is not None and set(declared) != set(ALL_COLUMNS):
        assert pruned > 0


# -- drills: each injected defect must fail the check above ----------------


@pytest.mark.parametrize(
    "cls",
    [c for c in ANALYZERS.values() if "offsets" in (getattr(c(), "required_columns", None) or ())],
    ids=lambda c: c.__name__,
)
def test_drill_undeclared_offsets_fails_with_column_pruned(cls, fleet):
    fmt, files, _store = fleet
    analyzer = cls()
    analyzer.required_columns = tuple(c for c in analyzer.required_columns if c != "offsets")
    with pytest.raises(ColumnPrunedError, match="'offsets'"):
        assert_pruning_changes_nothing(analyzer, files, fmt)


class _LambdaOnState(TemporalAnalyzer):
    """A defective analyzer: its state carries a lambda."""

    def init_state(self, volume_id):
        state = super().init_state(volume_id)
        state.reservoirs.append(lambda: volume_id)
        return state


def test_drill_lambda_on_state_fails_the_pickle_round_trip(long_trace):
    with pytest.raises((pickle.PicklingError, AttributeError), match="lambda"):
        assert_pickle_round_trip(_LambdaOnState(), long_trace)
