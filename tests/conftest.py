"""Suite-wide setup: the solvers run at one BLAS thread, as `pcqed` runs them."""

import pytest

from pcqed.cli import _one_blas_thread


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    # `main` pins the thread count once per process; the tests call the
    # solvers directly, so the session pins it once for them.
    _one_blas_thread()
