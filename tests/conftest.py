import os

from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def pytest_report_header(config):
    """Versions and thread counts that bits of the dense eigensolve can
    follow, so that a golden mismatch can be read against them."""
    import numpy
    import scipy

    from spectralweak import spectral

    found = spectral._scipy_openblas()
    threads = found.get() if found is not None else "none found"
    return (
        f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
        f"scipy OpenBLAS threads {threads}, os.cpu_count() {os.cpu_count()}"
    )
