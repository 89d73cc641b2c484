"""Per-rule fixture tests: each RC rule fires on a violating snippet and
stays silent on a conforming one."""

import textwrap

import pytest

from repro.checks import lint_source


def rules_fired(source, path="pkg/mod.py", select=None):
    findings = lint_source(textwrap.dedent(source), path=path, select=select)
    return [(f.rule, f.line) for f in findings]


def rule_lines(source, rule, path="pkg/mod.py"):
    return [line for r, line in rules_fired(source, path=path, select=[rule])]


class TestRC001Randomness:
    def test_unseeded_default_rng_fires(self):
        assert rule_lines(
            """\
            import numpy as np
            rng = np.random.default_rng()
            """,
            "RC001",
        ) == [2]

    def test_seeded_default_rng_is_clean(self):
        assert rule_lines(
            """\
            import numpy as np
            rng = np.random.default_rng(7)
            """,
            "RC001",
        ) == []

    def test_none_seed_counts_as_unseeded(self):
        assert rule_lines(
            """\
            import numpy as np
            rng = np.random.default_rng(None)
            """,
            "RC001",
        ) == [2]

    def test_legacy_numpy_global_fires(self):
        assert rule_lines(
            """\
            import numpy as np
            np.random.seed(13)
            x = np.random.rand(10)
            """,
            "RC001",
        ) == [2, 3]

    def test_stdlib_random_fires(self):
        assert rule_lines(
            """\
            import random
            random.shuffle(items)
            """,
            "RC001",
        ) == [2]

    def test_from_import_alias_is_resolved(self):
        assert rule_lines(
            """\
            from numpy import random as nprand
            rng = nprand.default_rng()
            """,
            "RC001",
        ) == [2]

    def test_unrelated_local_name_is_clean(self):
        # A local object whose attribute happens to be called "shuffle"
        # must not be mistaken for the random module.
        assert rule_lines(
            """\
            deck = Deck()
            deck.shuffle()
            """,
            "RC001",
        ) == []

    def test_generator_and_seedsequence_are_clean(self):
        assert rule_lines(
            """\
            import numpy as np
            seq = np.random.SeedSequence(5)
            rng = np.random.default_rng(seq)
            """,
            "RC001",
        ) == []


class TestRC002WallClock:
    def test_time_time_fires(self):
        assert rule_lines(
            """\
            import time
            def f():
                return time.time()
            """,
            "RC002",
        ) == [3]

    def test_from_import_datetime_now_fires(self):
        assert rule_lines(
            """\
            from datetime import datetime
            stamp = datetime.now()
            """,
            "RC002",
        ) == [2]

    def test_perf_counter_is_clean(self):
        assert rule_lines(
            """\
            from time import perf_counter
            t0 = perf_counter()
            """,
            "RC002",
        ) == []

    def test_obs_paths_are_allowlisted_by_default(self):
        source = textwrap.dedent(
            """\
            import time
            now = time.time()
            """
        )
        in_obs = lint_source(source, path="src/repro/obs/timing.py", select=["RC002"])
        elsewhere = lint_source(source, path="src/repro/stats/timing.py", select=["RC002"])
        assert in_obs == []
        assert [f.rule for f in elsewhere] == ["RC002"]


class TestRC003Ordering:
    def test_set_union_loop_in_merge_fires(self):
        assert rule_lines(
            """\
            def merge(a, b):
                for key in set(a) | set(b):
                    combine(key)
            """,
            "RC003",
        ) == [2]

    def test_keys_view_union_fires(self):
        assert rule_lines(
            """\
            def merge(a, b):
                for key in a.keys() | b.keys():
                    combine(key)
            """,
            "RC003",
        ) == [2]

    def test_comprehension_over_set_in_consume_fires(self):
        assert rule_lines(
            """\
            def consume(state, chunk):
                return [x for x in {1, 2, 3}]
            """,
            "RC003",
        ) == [2]

    def test_sorted_wrapper_is_clean(self):
        assert rule_lines(
            """\
            def merge(a, b):
                for key in sorted(set(a) | set(b)):
                    combine(key)
            """,
            "RC003",
        ) == []

    def test_dict_iteration_is_clean(self):
        assert rule_lines(
            """\
            def merge(a, b):
                for key, value in b.items():
                    a[key] = a.get(key, 0) + value
                return a
            """,
            "RC003",
        ) == []

    def test_outside_merge_scope_is_clean(self):
        assert rule_lines(
            """\
            def helper(a, b):
                for key in set(a) | set(b):
                    combine(key)
            """,
            "RC003",
        ) == []


class TestRC005Swallow:
    def test_bare_except_fires(self):
        assert rule_lines(
            """\
            try:
                parse()
            except:
                pass
            """,
            "RC005",
        ) == [3]

    def test_except_exception_pass_fires(self):
        assert rule_lines(
            """\
            try:
                parse()
            except Exception:
                pass
            """,
            "RC005",
        ) == [3]

    def test_handled_broad_except_is_clean(self):
        # A handler that *does* something (the chunk-fallback pattern) is
        # a designated fallback site, not a swallow.
        assert rule_lines(
            """\
            for line in lines:
                try:
                    parse(line)
                except Exception:
                    bad_lines += 1
                    continue
            """,
            "RC005",
        ) == []

    def test_narrow_except_is_clean(self):
        assert rule_lines(
            """\
            try:
                parse()
            except ValueError:
                pass
            """,
            "RC005",
        ) == []


class TestRC006Exports:
    def test_missing_all_fires(self):
        assert rule_lines(
            """\
            def public_fn():
                return 1
            """,
            "RC006",
        ) == [1]

    def test_undefined_name_in_all_fires(self):
        assert rule_lines(
            """\
            __all__ = ["ghost"]
            """,
            "RC006",
        ) == [1]

    def test_public_def_missing_from_all_fires(self):
        assert rule_lines(
            """\
            __all__ = ["listed"]
            def listed():
                return 1
            def unlisted():
                return 2
            """,
            "RC006",
        ) == [4]

    def test_consistent_module_is_clean(self):
        assert rule_lines(
            """\
            from os.path import join
            __all__ = ["Public", "public_fn"]
            CONSTANT = 3
            class Public:
                pass
            def public_fn():
                return join("a", "b")
            def _private():
                return 0
            """,
            "RC006",
        ) == []

    def test_private_modules_are_skipped(self):
        source = "def public_fn():\n    return 1\n"
        assert lint_source(source, path="pkg/_private.py", select=["RC006"]) == []
        assert lint_source(source, path="pkg/__main__.py", select=["RC006"]) == []

    def test_dunder_init_is_checked(self):
        assert rule_lines(
            "def public_fn():\n    return 1\n", "RC006", path="pkg/__init__.py"
        ) == [1]


class TestSuppressions:
    def test_scoped_noqa_silences_only_that_rule(self):
        source = textwrap.dedent(
            """\
            import numpy as np
            __all__ = []
            rng = np.random.default_rng()  # repro: noqa[RC001]
            """
        )
        assert [f.rule for f in lint_source(source, path="pkg/mod.py")] == []

    def test_bare_noqa_silences_every_rule(self):
        source = textwrap.dedent(
            """\
            import numpy as np
            __all__ = []
            rng = np.random.default_rng()  # repro: noqa
            """
        )
        assert lint_source(source, path="pkg/mod.py") == []

    def test_wrong_rule_id_does_not_silence(self):
        source = textwrap.dedent(
            """\
            import numpy as np
            __all__ = []
            rng = np.random.default_rng()  # repro: noqa[RC002]
            """
        )
        assert [f.rule for f in lint_source(source, path="pkg/mod.py")] == ["RC001"]

    def test_noqa_on_other_line_does_not_silence(self):
        source = textwrap.dedent(
            """\
            import numpy as np
            __all__ = []  # repro: noqa[RC001]
            rng = np.random.default_rng()
            """
        )
        assert [f.rule for f in lint_source(source, path="pkg/mod.py")] == ["RC001"]

    def test_multiple_ids_in_one_comment(self):
        source = textwrap.dedent(
            """\
            def merge(a, b):
                for key in set(a) | set(b):  # repro: noqa[RC003, RC001]
                    combine(key)
            """
        )
        assert lint_source(source, path="pkg/mod.py", select=["RC003"]) == []


class TestSyntaxErrors:
    def test_unparsable_file_yields_rc000(self):
        findings = lint_source("def broken(:\n", path="pkg/mod.py")
        assert [f.rule for f in findings] == ["RC000"]
        assert findings[0].severity == "error"


@pytest.mark.parametrize(
    "rule_id", ["RC001", "RC002", "RC003", "RC005", "RC006", "RC008", "RC009"]
)
def test_every_rule_is_registered_with_metadata(rule_id):
    from repro.checks import get_rule

    rule = get_rule(rule_id)
    assert rule.id == rule_id
    assert rule.description
    assert rule.hint
    assert rule.severity in ("error", "warning")
