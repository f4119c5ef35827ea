"""Desk-scale simulator and analysis pipeline for a metastable-strontium
fine-structure qubit: driven Lambda-system dynamics with dissipation,
canonical pulse sequences, trap-polarizability engineering, and the
damped-oscillation signal-extraction chain.

The eight simulation and analysis modules (`atom`, `driven`, `dsp`,
`formulas`, `lindblad`, `rates`, `sequences`, `trap`) are bound lazily:
`fsqubit.sequences` is a module object at once, but its code runs on the
first attribute access, as `importlib.util.LazyLoader` makes it.  So a
process that only parses scenarios, prints a dry run or answers `trap`
compiles none of the physics it does not call.  `config`, `units` and
`fsqubit.harness` import as usual.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy_module(name: str):
    """The module `name`, put in sys.modules without running its code; the
    first attribute access runs it (the `importlib.util.LazyLoader` recipe)."""
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


atom = _lazy_module("fsqubit.atom")
driven = _lazy_module("fsqubit.driven")
dsp = _lazy_module("fsqubit.dsp")
formulas = _lazy_module("fsqubit.formulas")
lindblad = _lazy_module("fsqubit.lindblad")
rates = _lazy_module("fsqubit.rates")
sequences = _lazy_module("fsqubit.sequences")
trap = _lazy_module("fsqubit.trap")
