"""Registry of every Table 3 benchmark case.

Importing this module imports every workload module, so code that
``import repro`` pulls in must import it lazily, inside the function that
needs a case.
"""

from __future__ import annotations

from typing import List, Union

from repro.workloads.base import BenchmarkCase
from repro.workloads.rodinia import (
    backprop,
    bfs,
    btree,
    cfd,
    gaussian,
    heartwall,
    hotspot,
    huffman,
    kmeans,
    lavamd,
    lud,
    myocyte,
    nw,
    particlefilter,
    pathfinder,
    srad,
    streamcluster,
)
from repro.workloads.apps import exatensor, minimod, pelec, quicksilver

_MODULES = (
    backprop, bfs, btree, cfd, gaussian, heartwall, hotspot, huffman, kmeans,
    lavamd, lud, myocyte, nw, particlefilter, streamcluster, srad, pathfinder,
    quicksilver, exatensor, pelec, minimod,
)


def all_cases() -> List[BenchmarkCase]:
    """Every (kernel, optimization) row of Table 3, in the paper's order."""
    cases: List[BenchmarkCase] = []
    for module in _MODULES:
        cases.extend(module.CASES)
    return cases


def rodinia_cases() -> List[BenchmarkCase]:
    """The Rodinia subset (the Figure 7 population)."""
    return [case for case in all_cases() if case.is_rodinia]


def application_cases() -> List[BenchmarkCase]:
    """The Section 7 case-study applications."""
    return [case for case in all_cases() if not case.is_rodinia]


def case_names() -> List[str]:
    """Unique case identifiers (``benchmark:optimization``)."""
    return [case.case_id for case in all_cases()]


def case_by_name(name: str) -> BenchmarkCase:
    """Look up a case by its ``case_id``, benchmark name or kernel name.

    When several cases share a benchmark name the first (paper order) match
    is returned.
    """
    cases = all_cases()
    for case in cases:
        if case.case_id == name:
            return case
    for case in cases:
        if case.name == name or case.kernel == name:
            return case
    raise KeyError(f"no benchmark case named {name!r}; known: {case_names()}")


def resolve_case(case_or_id: Union[str, BenchmarkCase]) -> BenchmarkCase:
    """Accept a registry ``case_id`` or a :class:`BenchmarkCase` object."""
    if isinstance(case_or_id, str):
        return case_by_name(case_or_id)
    return case_or_id


def is_registry_case(case: BenchmarkCase) -> bool:
    """Whether ``case`` is the registry's own object (not an ad-hoc case).

    Only registry cases can travel by ``case_id``; an ad-hoc case, even
    one cloned from a registry case, has to travel as its binaries.
    """
    try:
        return case_by_name(case.case_id) is case
    except KeyError:
        return False
