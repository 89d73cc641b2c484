"""Seeded benchmark inputs: the ``repro generate`` fleets, fitted to a work size.

``ALI`` is the fleet ``repro generate --days 31 --day-seconds D --seed S``
writes (the generator's default 100 volumes), and ``MSRC`` the fleet
``repro generate --fleet msrc --day-seconds D_M --seed S+1`` writes (36
volumes, 7 days): one file per volume, as the generator lays them out.
The fleets' request rates do not depend on the day length, so their size
grows with it, but at a fixed day length it varies severalfold from seed
to seed.  Each fleet's day length is therefore chosen per seed so that
the fleet makes close to a target number of 4 KiB block accesses, the
unit the ``core`` metrics work in: try 30 s, scale the day length by
target over accesses, and keep the closest of a few tries.  Every seed
then costs about the same work.  A fleet of 20 volumes, each with its
own randomly drawn rate and request sizes, still varied by a sixth in
requests per block access from seed to seed; 100 volumes average that
out to half as much.

Both fleets of a seed are written once under the input cache and reused
by later runs; ``meta.json`` beside them holds each fleet's day length,
file count and the per-volume counts that the output checks compare
with, and the verdicts of ``evaluate_findings`` on the fleets as read
back from the written text, which ``repro findings`` must reproduce.
Reading them back needs only the standard library, so the measuring
process stays small (its RSS at spawn time would otherwise leak into the
children's ``ru_maxrss``).

Usage (``PYTHONPATH`` must hold ``src``)::

    python benchmarks/suite/inputs.py DIR SEED ALI_BLOCKS MSRC_BLOCKS
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: First day length tried for every fleet, and the most tries per fleet.
BASE_DAY_SECONDS, FIT_TRIES = 30.0, 5
BLOCK_SIZE = 4096
ALI_VOLUMES = 100

#: Per-volume counts every profile output must reproduce exactly.
COUNT_KEYS = ("n_requests", "n_reads", "n_writes", "read_bytes", "write_bytes")


@dataclass(frozen=True)
class Fleet:
    """One generated fleet on disk."""

    directory: str
    fmt: str
    day_seconds: float
    blocks: int  # 4 KiB block accesses of all its requests
    n_files: int
    expected: Dict[str, Dict[str, int]]  # volume id -> COUNT_KEYS

    @property
    def rows(self) -> int:
        return sum(v["n_requests"] for v in self.expected.values())


def inputs_dir(cache_dir: str, seed: int, ali_blocks: int, msrc_blocks: int) -> str:
    return os.path.join(cache_dir,
                        f"seed{seed}-ali{ALI_VOLUMES}v{ali_blocks}-msrc{msrc_blocks}")


def load_inputs(directory: str) -> Tuple[Fleet, Fleet, List[bool]]:
    """The (AliCloud, MSRC) fleets of a generated input directory, and the
    findings verdicts on them."""
    with open(os.path.join(directory, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    ali, msrc = (Fleet(os.path.join(directory, fmt), fmt, **meta[fmt])
                 for fmt in ("alicloud", "msrc"))
    return ali, msrc, meta["verdicts"]


def make_fleet(fmt: str, seed: int, day_seconds: float):
    """The fleet ``repro generate`` makes for this format, seed and day length."""
    from repro.synth import alicloud_scale, make_alicloud_fleet, make_msrc_fleet, msrc_scale

    if fmt == "alicloud":
        scale = alicloud_scale(n_days=31, day_seconds=day_seconds)
        return make_alicloud_fleet(n_volumes=ALI_VOLUMES, seed=seed, scale=scale)
    scale = msrc_scale(n_days=7, day_seconds=day_seconds)
    return make_msrc_fleet(n_volumes=36, seed=seed + 1, scale=scale)


def block_accesses(dataset) -> int:
    """The 4 KiB blocks all requests touch, counted once per request."""
    from repro.trace.blocks import expand_to_blocks

    return sum(len(expand_to_blocks(v.offsets, v.sizes, BLOCK_SIZE)[0])
               for v in dataset.volumes())


def fit_fleet(fmt: str, seed: int, blocks: int):
    """``(day_seconds, accesses, fleet)`` with accesses closest to ``blocks``."""
    day_seconds = BASE_DAY_SECONDS
    tries = []
    for _ in range(FIT_TRIES):
        dataset = make_fleet(fmt, seed, day_seconds)
        made = block_accesses(dataset)
        tries.append((abs(made - blocks), day_seconds, made, dataset))
        if tries[-1][0] <= blocks // 100:
            break
        day_seconds = round(day_seconds * blocks / made, 2)
    return min(tries, key=lambda t: t[0])[1:]


def generate(directory: str, seed: int, ali_blocks: int, msrc_blocks: int) -> None:
    """Write both fleets and ``meta.json`` to ``directory`` (atomically)."""
    from layers import verdicts
    from repro.engine import read_dataset_dir_chunked
    from repro.trace import write_dataset_dir

    tmp = f"{directory}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    meta = {}
    for fmt, blocks in (("alicloud", ali_blocks), ("msrc", msrc_blocks)):
        day_seconds, made, dataset = fit_fleet(fmt, seed, blocks)
        write_dataset_dir(dataset, os.path.join(tmp, fmt), fmt=fmt)
        meta[fmt] = {
            "day_seconds": day_seconds,
            "blocks": made,
            "n_files": len(os.listdir(os.path.join(tmp, fmt))),
            "expected": {
                trace.volume_id: {key: int(getattr(trace, key)) for key in COUNT_KEYS}
                for trace in dataset.non_empty_volumes()
            },
        }
    ali, msrc = (read_dataset_dir_chunked(os.path.join(tmp, fmt), fmt=fmt)
                 for fmt in ("alicloud", "msrc"))
    meta["verdicts"] = verdicts(ali, msrc, meta["alicloud"]["day_seconds"])
    with open(os.path.join(tmp, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    shutil.rmtree(directory, ignore_errors=True)
    os.replace(tmp, directory)


if __name__ == "__main__":
    generate(sys.argv[1], *(int(a) for a in sys.argv[2:5]))
