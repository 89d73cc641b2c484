"""Synthetic workload generation: arrival, size, and address models,
application archetypes, and calibrated AliCloud-/MSRC-like fleets."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .address import (
        AddressModel,
        CircularLog,
        MixtureAddress,
        SequentialRuns,
        UniformRandom,
        ZipfHotspot,
    )
    from .alicloud import alicloud_scale, make_alicloud_fleet
    from .archetypes import (
        ALICLOUD_ARCHETYPES,
        MSRC_ARCHETYPES,
        Scale,
        backup_writer,
        database,
        kv_store,
        log_writer,
        msrc_log_server,
        msrc_project_server,
        msrc_source_control,
        virtual_desktop,
        web_server,
    )
    from .arrival import (
        ArrivalProcess,
        DailyBatch,
        DiurnalArrivals,
        JitteredRegular,
        MicroBurst,
        OnOffArrivals,
        PoissonArrivals,
        Superpose,
    )
    from .distributions import ZipfSampler, bounded_lognormal, categorical
    from .fleet import FleetSpec, build_fleet
    from .msrc import make_msrc_fleet, msrc_scale
    from .rng import make_rng, spawn_rngs
    from .sizes import ChoiceSizes, FixedSize, LognormalSizes, SizeModel, small_request_mix
    from .twin import TwinParameters, fit_twin, twin_spec
    from .volume_model import VolumeSpec, generate_volume

__all__ = [
    "make_rng",
    "spawn_rngs",
    "ZipfSampler",
    "bounded_lognormal",
    "categorical",
    "ArrivalProcess",
    "PoissonArrivals",
    "OnOffArrivals",
    "DiurnalArrivals",
    "JitteredRegular",
    "Superpose",
    "DailyBatch",
    "MicroBurst",
    "SizeModel",
    "FixedSize",
    "ChoiceSizes",
    "LognormalSizes",
    "small_request_mix",
    "AddressModel",
    "UniformRandom",
    "ZipfHotspot",
    "SequentialRuns",
    "CircularLog",
    "MixtureAddress",
    "VolumeSpec",
    "generate_volume",
    "Scale",
    "log_writer",
    "backup_writer",
    "database",
    "kv_store",
    "web_server",
    "virtual_desktop",
    "msrc_project_server",
    "msrc_log_server",
    "msrc_source_control",
    "ALICLOUD_ARCHETYPES",
    "MSRC_ARCHETYPES",
    "FleetSpec",
    "build_fleet",
    "TwinParameters",
    "fit_twin",
    "twin_spec",
    "make_alicloud_fleet",
    "alicloud_scale",
    "make_msrc_fleet",
    "msrc_scale",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".address": (
        "AddressModel", "CircularLog", "MixtureAddress", "SequentialRuns",
        "UniformRandom", "ZipfHotspot",
    ),
    ".alicloud": ("alicloud_scale", "make_alicloud_fleet"),
    ".archetypes": (
        "ALICLOUD_ARCHETYPES", "MSRC_ARCHETYPES", "Scale", "backup_writer", "database",
        "kv_store", "log_writer", "msrc_log_server", "msrc_project_server",
        "msrc_source_control", "virtual_desktop", "web_server",
    ),
    ".arrival": (
        "ArrivalProcess", "DailyBatch", "DiurnalArrivals", "JitteredRegular",
        "MicroBurst", "OnOffArrivals", "PoissonArrivals", "Superpose",
    ),
    ".distributions": ("ZipfSampler", "bounded_lognormal", "categorical"),
    ".fleet": ("FleetSpec", "build_fleet"),
    ".msrc": ("make_msrc_fleet", "msrc_scale"),
    ".rng": ("make_rng", "spawn_rngs"),
    ".sizes": (
        "ChoiceSizes", "FixedSize", "LognormalSizes", "SizeModel", "small_request_mix",
    ),
    ".twin": ("TwinParameters", "fit_twin", "twin_spec"),
    ".volume_model": ("VolumeSpec", "generate_volume"),
})
