"""Exact numerics for rank-2 instanton bundles on P(O + O(e)) over P².

Submodules:

* ``chow``       — the Chow ring Z[xi,f]/(f^3, xi^2 - e xi f), Chern-class
                   calculus, both Riemann-Roch routes;
* ``cohomology`` — closed-form cohomology of line bundles and Omega twists,
                   formal direct sums, exact-sequence utilities;
* ``beilinson``  — dual exceptional collections, orthogonality and
                   strongness verification, instanton tables and monads;
* ``instanton``  — vanishing regions, stability test region, curve and Ext
                   bookkeeping, the existence decision procedure;
* ``verification`` — the cross-check suites behind ``scrollcalc verify``;
* ``cli``        — the command-line interface.

The submodules and the exported records load on first use (PEP 562), so
``import scrollcalc`` loads none of them and a ``scrollcalc`` process loads
only what its subcommand runs.
"""

import sys

__version__ = "0.1.0"

__all__ = [
    "ChernData",
    "ChowClass",
    "CohVector",
    "ExistenceReport",
    "FormalSheaf",
    "InstantonParams",
    "Summand",
    "beilinson",
    "chow",
    "cohomology",
    "instanton",
    "verification",
]

_SUBMODULES = frozenset({"beilinson", "chow", "cohomology", "instanton", "verification"})
_RECORDS = {
    "ChernData": "chow",
    "ChowClass": "chow",
    "CohVector": "cohomology",
    "FormalSheaf": "cohomology",
    "Summand": "cohomology",
    "ExistenceReport": "instanton",
    "InstantonParams": "instanton",
}


def __getattr__(name):
    if name in _SUBMODULES:
        # __import__ takes the import path that ``-X importtime`` reports, which
        # importlib.import_module does not; it binds the submodule here too.
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name in _RECORDS:
        globals()[name] = getattr(__getattr__(_RECORDS[name]), name)
        return globals()[name]
    # Not an export: the module's own lookup fails again, with its AttributeError.
    return object.__getattribute__(sys.modules[__name__], name)
