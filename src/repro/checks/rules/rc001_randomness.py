"""RC001 — no unseeded or global-state randomness.

Reproducibility of every figure and finding rests on randomness flowing
from explicit, seeded ``numpy.random.Generator`` objects
(:mod:`repro.synth.rng`).  This rule flags the three ways entropy sneaks
in anyway:

* ``np.random.default_rng()`` with no seed (fresh OS entropy per call);
* legacy global-state numpy (``np.random.seed`` / ``np.random.rand`` /
  ``np.random.choice`` …), whose hidden singleton breaks process-pool
  determinism even when seeded;
* the stdlib :mod:`random` module (global Mersenne state, and
  ``random.Random()`` / ``random.SystemRandom()`` constructed unseeded).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..finding import Finding
from ..registry import Module, Rule, register

__all__ = ["UnseededRandomnessRule"]

#: Legacy ``numpy.random`` module-level functions backed by the global
#: ``RandomState`` singleton.
_NUMPY_LEGACY = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
        "normal", "standard_normal", "poisson", "exponential", "beta",
        "gamma", "binomial", "lognormal", "pareto", "weibull", "zipf",
        "get_state", "set_state",
    }
)

#: Stdlib ``random`` module-level functions (global Mersenne Twister).
_STDLIB_RANDOM = frozenset(
    {
        "seed", "random", "randint", "randrange", "choice", "choices",
        "shuffle", "sample", "uniform", "gauss", "normalvariate",
        "expovariate", "betavariate", "triangular", "vonmisesvariate",
        "paretovariate", "weibullvariate", "lognormvariate",
        "getrandbits", "randbytes",
    }
)


def _is_unseeded(call: ast.Call) -> bool:
    """No positional seed argument, or an explicit ``None`` seed."""
    if not call.args and not call.keywords:
        return True
    if call.args:
        first = call.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    return any(
        kw.arg == "seed" and isinstance(kw.value, ast.Constant) and kw.value.value is None
        for kw in call.keywords
    )


@register
class UnseededRandomnessRule(Rule):
    id = "RC001"
    description = "randomness must come from explicit, seeded numpy Generators"
    severity = "error"
    hint = (
        "thread an explicit numpy Generator (repro.synth.rng.make_rng / "
        "spawn_rngs, or np.random.default_rng(seed)) instead"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            qualname = module.imports.resolve(node.func)
            if qualname is None:
                continue
            if qualname == "numpy.random.default_rng":
                if _is_unseeded(node):
                    yield module.finding(
                        self, node,
                        "np.random.default_rng() without a seed draws fresh OS "
                        "entropy — results change run to run",
                    )
                continue
            parts = qualname.split(".")
            if parts[:2] == ["numpy", "random"] and len(parts) == 3:
                if parts[2] in _NUMPY_LEGACY:
                    yield module.finding(
                        self, node,
                        f"legacy global-state numpy RNG call np.random.{parts[2]}() "
                        "— hidden singleton state is not reproducible across "
                        "processes",
                    )
                continue
            if parts[0] == "random" and len(parts) == 2:
                fn = parts[1]
                if fn in _STDLIB_RANDOM:
                    yield module.finding(
                        self, node,
                        f"stdlib random.{fn}() uses hidden global state",
                    )
                elif fn == "Random" and _is_unseeded(node):
                    yield module.finding(
                        self, node, "random.Random() constructed without a seed"
                    )
                elif fn == "SystemRandom":
                    yield module.finding(
                        self, node,
                        "random.SystemRandom() is OS entropy by design — never "
                        "reproducible",
                    )
