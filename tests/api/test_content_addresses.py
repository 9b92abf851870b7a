"""Pinned content addresses of named-benchmark tasks.

A task's ``cache_key()`` files its result in every on-disk cache and
store, so a key that moves silently orphans every stored result.  The
keys below were generated before registered benchmarks' canonical graphs
and registered libraries' canonical module tables were memoized; they pin
that memoization (and any later change to the canonical spec) to
byte-identical addresses.
"""

import pytest

from repro.api.task import CACHE_KEY_VERSION, SynthesisTask, library_to_dict
from repro.library.library import FULibrary
from repro.registries import LIBRARIES
from repro.ir.serialize import to_dict as cdfg_to_dict
from repro.suite.registry import BENCHMARKS, benchmark_names, get_benchmark, register_benchmark

#: cache_key() of ``fixed_task(name)`` for every registered benchmark.
GOLDEN_KEYS = {
    "hal": "f1560e10e236b613d66eb153fa5d9eff68d4cc734ba299d7e872a39257c92c9f",
    "cosine": "75d856a372c75084136002d500ccfc40bcd3aac2c41914ada69586e3f0c1e4ed",
    "elliptic": "4debaf0397affc14b367da5565a4e8e4c9ce29ff9765a603ca09b261e8d751fc",
    "fir": "fec71733fc551f1ead208ab64600b21b227bca05f55b838eacdeaebf3d99c6a1",
    "ar": "c1fa66d3c73f117c4ca40f090840a035880ac3ffefffe2b7673e98e5029f5538",
    "chain": "563fdb61c05f64dce37a8461d4d324f80dfe0dadc94db9e7020390926a74b2ab",
    "tree": "ad61531445abce81e54bcdf44b713b003b96d0f66e989563a8fe706bf73fa0a5",
    "butterfly": "d1d1903006b9d79164baae11b5de6ca2e3d905cf5267eb7813a7633f6a7e81c5",
    "mesh": "b7148ac4a6f748a67a3c2b2c91d22026bc72396dd2ae07ce8650b3eb582e1801",
}


def fixed_task(name: str) -> SynthesisTask:
    return SynthesisTask(
        graph=name, latency=get_benchmark(name).latencies[0], power_budget=12.5
    )


def test_every_registered_benchmark_is_pinned():
    assert CACHE_KEY_VERSION == 2
    assert sorted(GOLDEN_KEYS) == sorted(benchmark_names())


@pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
def test_cache_key_matches_golden(name):
    assert fixed_task(name).cache_key() == GOLDEN_KEYS[name]
    # A second task hashes through the memoized canonical graph.
    assert fixed_task(name).cache_key() == GOLDEN_KEYS[name]


@pytest.mark.parametrize("name", ["hal", "mesh"])
def test_inline_graph_shares_the_named_key(name):
    named = fixed_task(name)
    inline = SynthesisTask(
        graph=cdfg_to_dict(get_benchmark(name).build()),
        latency=named.latency,
        power_budget=named.power_budget,
    )
    assert inline.cache_key() == GOLDEN_KEYS[name]


def test_mutating_a_canonical_spec_does_not_leak_into_later_keys():
    spec = fixed_task("hal").canonical_spec()
    spec["graph"]["operations"][0]["attrs"]["poisoned"] = True
    spec["graph"]["operations"].pop()
    spec["graph"]["edges"][0]["multiplicity"] = 99
    assert fixed_task("hal").cache_key() == GOLDEN_KEYS["hal"]


def test_replacing_a_benchmark_moves_its_key_and_restoring_it_moves_it_back():
    original = BENCHMARKS.get("hal")
    assert fixed_task("hal").cache_key() == GOLDEN_KEYS["hal"]
    try:
        register_benchmark(
            "hal",
            lambda: original.build().copy(name="hal-variant"),
            latencies=original.latencies,
            in_paper=original.in_paper,
            replace=True,
        )
        assert fixed_task("hal").cache_key() != GOLDEN_KEYS["hal"]
    finally:
        register_benchmark(
            "hal",
            original.builder,
            latencies=original.latencies,
            in_paper=original.in_paper,
            replace=True,
        )
    assert fixed_task("hal").cache_key() == GOLDEN_KEYS["hal"]


def test_mutating_a_canonical_library_does_not_leak_into_later_keys():
    spec = fixed_task("hal").canonical_spec()
    spec["library"]["modules"][0]["ops"].append("poisoned")
    spec["library"]["modules"][0]["area"] = -1.0
    spec["library"]["modules"].pop()
    assert fixed_task("hal").cache_key() == GOLDEN_KEYS["hal"]


def test_replacing_a_library_moves_its_key_and_restoring_it_moves_it_back():
    original = LIBRARIES.get("table1")
    assert fixed_task("hal").cache_key() == GOLDEN_KEYS["hal"]

    def variant():
        library = original()
        return FULibrary(library.modules()[:-1], name=library.name)

    try:
        LIBRARIES.register("table1", variant, replace=True)
        assert fixed_task("hal").cache_key() != GOLDEN_KEYS["hal"]
    finally:
        LIBRARIES.register("table1", original, replace=True)
    assert fixed_task("hal").cache_key() == GOLDEN_KEYS["hal"]


def test_a_registered_library_name_shares_the_inline_key():
    named = fixed_task("hal")
    inline = SynthesisTask(
        graph="hal",
        latency=named.latency,
        power_budget=named.power_budget,
        library=library_to_dict(LIBRARIES.get("table1")()),
    )
    assert inline.cache_key() == GOLDEN_KEYS["hal"]
