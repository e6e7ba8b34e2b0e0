import importlib

import pytest


@pytest.mark.parametrize(
    "module",
    [
        "factorfit",
        "factorfit.collectives",
        "factorfit.data_io",
        "factorfit.htfa",
        "factorfit.kernels",
        "factorfit.reference",
        "factorfit.srm",
        "factorfit.trf",
    ],
)
def test_every_exported_name_resolves(module):
    """Each name in a module's ``__all__`` is an attribute of the module, so a
    deleted or renamed class cannot leave a dangling export."""
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
