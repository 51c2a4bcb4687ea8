"""Coupled bulk-surface elliptic toolkit.

Solves and spectrally analyzes a bulk Poisson equation coupled to a surface
Laplace-Beltrami equation through a Robin (K > 0) or Dirichlet (K = 0)
condition, for both the second-order system and the fourth-order system
obtained by composing two second-order solves.

Submodules are imported lazily so the CLI can configure BLAS threading
before numpy loads.
"""

__version__ = "0.1.0"

_SUBMODULES = ("mesh", "expr", "linalg", "assembly", "solver", "eigen", "oracle", "cli")


def kernel_backend():
    """Hot-kernel implementation the benchmark records: always 'numpy'."""
    from . import _kernels

    return _kernels.kernel_backend()


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
