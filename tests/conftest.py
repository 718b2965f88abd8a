import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))

from irsbeam import IrsArray, NearFieldGeometry, WidebandConfig

longdouble_only = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 here",
)
"""Marks a test whose bound needs np.longdouble wider than float64."""

# One deterministic profile: the same examples on every run, no wall-clock
# deadline on a shared host, and no example database written to disk.
settings.register_profile(
    "irsbeam", derandomize=True, deadline=None, database=None, max_examples=20
)
settings.load_profile("irsbeam")


def pytest_configure(config):
    # Hypothesis caches the constants it reads from the source in its home
    # directory, ./.hypothesis by default; keep them in pytest's own cache, or,
    # without the cache plugin, in a temporary directory outside the checkout.
    if config.pluginmanager.has_plugin("cacheprovider"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))
    else:
        home = tempfile.mkdtemp(prefix="irsbeam-hypothesis-")
        config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
        set_hypothesis_home_dir(home)


@pytest.fixture
def cfg200():
    """Reference wideband setup: 200 GHz carrier, 6 GHz band, 128 subcarriers."""
    return WidebandConfig(carrier_hz=200e9, bandwidth_hz=6e9, n_subcarriers=128)


@pytest.fixture
def array64(cfg200):
    return IrsArray.half_wavelength(cfg200, 64)


@pytest.fixture
def geometry64(cfg200, array64):
    """Reference near-field layout: BS (0,0), user (3,0), first element (1,1)."""
    return NearFieldGeometry(
        bs_xy=(0.0, 0.0), user_xy=(3.0, 0.0), irs_origin_xy=(1.0, 1.0), array=array64
    )


def make_geometry(cfg, n_elements):
    return NearFieldGeometry(
        bs_xy=(0.0, 0.0),
        user_xy=(3.0, 0.0),
        irs_origin_xy=(1.0, 1.0),
        array=IrsArray.half_wavelength(cfg, n_elements),
    )
