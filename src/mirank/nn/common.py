"""Activations, loss, and parameter initialization shared by all models.

``sigmoid`` is scipy's ``expit`` ufunc. Every purchase probability goes
through it, and any other formula differs from it in the last bit, so the
pinned numbers rest on its bits. It is loaded from ``_special_ufuncs``, the
extension module that defines it, without executing the ``scipy`` package
or ``scipy.special``: ``importlib.util.find_spec`` locates scipy's directory
without running its ``__init__``. On scipy 1.17 ``scipy.special`` adds about
19 MiB of peak memory and 0.2 s to every process, the ``scipy`` package
alone about 0.9 MiB, the extension about 1 MiB. Loading the extension
registers it in ``sys.modules`` under the name it is loaded as (CPython does
so for a single-phase-init extension, as this one is), so a later ``import
scipy.special`` reuses this module and ``scipy.special.expit is sigmoid`` in
any import order; ``tests/test_nn.py`` checks three. A scipy build that
ships no such extension, or one without ``expit``, falls back to ``from
scipy.special import expit``, and a missing scipy ends in its
``ModuleNotFoundError``.
"""

from __future__ import annotations

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from pathlib import Path

import numpy as np

# Probabilities are clamped into [PROB_EPS, 1 - PROB_EPS] before any log.
PROB_EPS = 1e-7

_SPECIAL_UFUNCS = "scipy.special._special_ufuncs"


def _load_expit(special_dir: Path | None):
    """scipy's ``expit``: from the ``_special_ufuncs`` module if it is already
    imported, else from its extension file in ``special_dir``, else (no
    directory, no such file, or no ``expit`` in it) from ``scipy.special``."""
    module = sys.modules.get(_SPECIAL_UFUNCS)
    if module is None and special_dir is not None:
        paths = (special_dir / f"_special_ufuncs{suffix}" for suffix in EXTENSION_SUFFIXES)
        path = next((path for path in paths if path.is_file()), None)
        if path is not None:
            loader = ExtensionFileLoader(_SPECIAL_UFUNCS, str(path))
            module = module_from_spec(spec_from_loader(_SPECIAL_UFUNCS, loader))
            loader.exec_module(module)
    if not hasattr(module, "expit"):
        from scipy.special import expit

        return expit
    return module.expit


_scipy = find_spec("scipy")  # locates the package without executing it
sigmoid = _load_expit(Path(_scipy.origin).parent / "special" if _scipy else None)


def cross_entropy_batch(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Summed binary cross-entropy -[y ln p + (1-y) ln(1-p)], p clamped into [PROB_EPS, 1 - PROB_EPS]."""
    p = np.clip(np.asarray(predictions, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.sum(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    if len(shape) == 1:
        fan_in = fan_out = shape[0]
    else:
        fan_out, fan_in = shape[0], int(np.prod(shape[1:]))
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
