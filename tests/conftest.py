import contextlib
import signal

import numpy as np
import pytest

from plumeflux.scene_io import RadianceCube, SensorDescriptor


def make_descriptor(
    n_bands=6,
    start=2100.0,
    stop=2450.0,
    fwhm=12.0,
    gsd=30.0,
    noise_a=None,
    noise_c=None,
    sensor_id="test",
):
    centers = np.linspace(start, stop, n_bands)
    return SensorDescriptor(
        sensor_id=sensor_id,
        band_centers=centers,
        band_fwhm=np.full(n_bands, fwhm),
        gsd=gsd,
        noise_a=None if noise_a is None else np.full(n_bands, float(noise_a)),
        noise_c=None if noise_c is None else np.full(n_bands, float(noise_c)),
    )


def make_cube(data, descriptor=None, origin=(0.0, 0.0), nodata_mask=None, **kwargs):
    data = np.asarray(data, dtype=np.float64)
    if descriptor is None:
        kwargs.pop("n_bands", None)
        descriptor = make_descriptor(n_bands=data.shape[0], **kwargs)
    return RadianceCube(descriptor=descriptor, data=data, origin=origin, nodata_mask=nodata_mask)


def random_spd(rng, p, scale=1.0):
    """Random symmetric positive definite matrix."""
    A = rng.standard_normal((p, p))
    return scale * (A @ A.T + p * np.eye(p))


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block if it runs for more than ``seconds`` of wall-clock time."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
