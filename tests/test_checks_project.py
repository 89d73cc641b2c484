"""Units for the whole-program pass: module naming, the one import
resolver, summary extraction, and ProjectModel constant lookup."""

import ast
import textwrap

import pytest

from repro.checks import Module, ProjectModel, extract_summary, module_name_for


def write(path, source=""):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def parse(path):
    return Module.from_source(path.read_text(), path=str(path))


def summarize(path):
    return extract_summary(parse(path))


def resolve(module, dotted):
    """``module.imports`` applied to the expression ``dotted``."""
    return module.imports.resolve(ast.parse(dotted, mode="eval").body)


@pytest.fixture
def pkg(tmp_path):
    """A two-level package: pkg/ and pkg/sub/, rooted in a non-package dir."""
    write(tmp_path / "pkg" / "__init__.py")
    write(tmp_path / "pkg" / "sub" / "__init__.py")
    return tmp_path / "pkg"


class TestModuleName:
    def test_walks_init_chain(self, pkg):
        mod = write(pkg / "sub" / "mod.py", "x = 1\n")
        assert module_name_for(str(mod)) == "pkg.sub.mod"

    def test_init_names_the_package(self, pkg):
        assert module_name_for(str(pkg / "sub" / "__init__.py")) == "pkg.sub"

    def test_loose_file_is_bare_stem(self, tmp_path):
        script = write(tmp_path / "script.py", "x = 1\n")
        assert module_name_for(str(script)) == "script"


class TestImportResolution:
    def test_absolute_and_aliased_imports(self, pkg):
        mod = write(
            pkg / "mod.py",
            """\
            import os
            import numpy as np
            from json import dumps as as_json
            """,
        )
        module = parse(mod)
        assert resolve(module, "os.environ") == "os.environ"
        assert resolve(module, "np.random.default_rng") == "numpy.random.default_rng"
        assert resolve(module, "as_json") == "json.dumps"
        assert resolve(module, "local.attr") is None

    def test_relative_imports_resolve_against_module(self, pkg):
        mod = write(
            pkg / "sub" / "mod.py",
            """\
            from . import helper
            from .helper import fn as f
            from .. import top
            from ..other import thing
            """,
        )
        module = parse(mod)
        assert resolve(module, "helper") == "pkg.sub.helper"
        assert resolve(module, "f") == "pkg.sub.helper.fn"
        assert resolve(module, "top.CONST") == "pkg.top.CONST"
        assert resolve(module, "thing") == "pkg.other.thing"

    def test_package_init_resolves_level_one_to_itself(self, pkg):
        init = write(pkg / "__init__.py", "from .sub import mod\n")
        assert resolve(parse(init), "mod") == "pkg.sub.mod"

    def test_relative_import_beyond_the_top_level_is_unresolved(self, tmp_path):
        script = write(tmp_path / "script.py", "from . import time\n")
        assert resolve(parse(script), "time.time") is None


class TestProjectModel:
    @pytest.fixture
    def project(self, pkg):
        a = write(pkg / "a.py", 'ENV_NAME = "REPRO_DEMO"\n')
        return ProjectModel([summarize(pkg / "__init__.py"), summarize(a)])

    def test_constant_and_env_var_resolution(self, project):
        assert project.constant("pkg.a.ENV_NAME") == "REPRO_DEMO"
        assert project.constant("pkg.a.MISSING") is None
        assert project.env_var_name(["LITERAL", None, 1, 0, "module"]) == "LITERAL"
        assert project.env_var_name([None, "pkg.a.ENV_NAME", 1, 0, "module"]) == "REPRO_DEMO"
        assert project.env_var_name([None, "pkg.a.MISSING", 1, 0, "module"]) is None


class TestSummaryFacts:
    def test_env_and_metric_sites(self, pkg):
        mod = write(
            pkg / "knobs.py",
            """\
            import os

            ENV_VAR = "REPRO_KNOB"
            _FLAG = os.environ.get(ENV_VAR)

            def enable(registry, n):
                os.environ[ENV_VAR] = "1"
                registry.counter("chunks.read")
                registry.histogram(f"lat.w{n}")
            """,
        )
        summary = summarize(mod)
        (read,) = summary["env_reads"]
        assert read[0] == "REPRO_KNOB" and read[4] == "module"
        (written,) = summary["env_writes"]
        assert written[0] == "REPRO_KNOB" and written[4] == "function"
        sites = {(kind, pattern) for kind, pattern, _l, _c in summary["metric_sites"]}
        assert sites == {("counter", "chunks.read"), ("histogram", "lat.w*")}

    def test_suppressions_round_trip(self, pkg):
        mod = write(
            pkg / "quiet.py",
            "x = 1  # repro: noqa[RC008]\ny = 2  # repro: noqa\n",
        )
        project = ProjectModel([summarize(mod)])
        supp = project.suppressions_for(str(mod))
        assert supp[1] == frozenset({"RC008"})
        assert "*" in supp[2]
