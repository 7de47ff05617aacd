"""The benchmark's workloads: fixed lists of calls into the package's public API.

No random seed is used; every run of a workload makes the same calls in the
same order.  A call is (kind, args):

- ("orderly", n, mode): max_cardinality_witness(n, mode), one table cell;
- ("sweep", n_min, n_max): verify_conjecture(n_max, n_min=n_min), one cell per n;
- ("clique", n, m): I_of(n, m), one cell.
"""

from __future__ import annotations

WORKLOADS: dict[str, tuple[tuple, ...]] = {
    # Orderly path of Tables 2/3: canonicity testing dominates; the general
    # cells add the circle filter that the semi-general cells skip.
    "orderly-dfs": (
        ("orderly", 25, "semi-general"),
        ("orderly", 29, "semi-general"),
        ("orderly", 25, "general"),
        ("orderly", 29, "general"),
    ),
    # Criterion 6 at a third of its size: branch and bound dominates; also
    # covers dispatch (coprime split, even reduction, constructions).
    "conjecture-sweep": (("sweep", 2, 47),),
    # m >= 3 graph building dominates time and sets the memory peak; I(16,3)
    # and I(4,8) take the even-weight graph path.  Not listed in BENCHMARK.json:
    # its solve time spreads too widely between runs on a shared 2-CPU host
    # (see bench/README.md), so it is run by hand.
    "highdim-build": (
        ("clique", 13, 3),
        ("clique", 17, 3),
        ("clique", 16, 3),
        ("clique", 9, 3),
        ("clique", 4, 8),
    ),
}


def cells_of(call: tuple) -> int:
    """Number of table cells (operations) one call answers."""
    if call[0] == "sweep":
        return call[2] - call[1] + 1
    return 1
