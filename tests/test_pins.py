"""Absolute sha256 pins on the simulator and on one analysed window.

Every other parity suite compares two implementations with each other;
these tests compare the code with fixed digests, so a change that moves
both sides of a parity check at once (a new float rounding, a new draw
order, a new tie break) still shows.  A change that moves a digest on
purpose must say so, and why, in CHANGES.md.

* The degraded telemetry of two short campaigns, with the number of
  simulated events (the ``_world`` digest of ``test_sim_hot_path``).
* A 3,600-job synthesized rung (seed 2025): every default analysis,
  each method's ``matched_pairs()`` and RM3's matched counts over a
  threshold sweep.

Outputs are hashed through a canonical encoding: dataclasses field by
field, floats by ``float.hex``, dicts in insertion order (it decides
ties) and arrays by dtype, shape and raw bytes (``repr`` elides long
arrays).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

import numpy as np
import pytest

from repro.core.matching.rm3 import RM3Matcher
from repro.exec.analysis import DEFAULT_ANALYSES, run_analyses
from repro.exec.artifacts import ArtifactCache, build_report, match_artifacts
from repro.exec.executor import default_matchers
from repro.exec.plan import WindowPlan
from repro.workload.scale import ScaleConfig, synthesize

from tests.test_sim_hot_path import _world

TELEMETRY_PINS = {
    (7, 0.15): (
        "2246a0b25469efdc1c9dd605b4ecc4a0c9621596d9dda299d03f71d964b264fa", 1737),
    (2025, 0.25): (
        "c2a670b992a124ed9e8c46ac19fbcc7644f8dabdfa69d066325b2174a716266a", 2751),
}

RUNG = ScaleConfig(n_jobs=3_600, seed=2025)
RM3_SWEEP = (0.0, 0.2, 0.35, 0.5, 0.8, 1.0)

WINDOW_PINS = {
    "analysis.headline": (
        "dac7a869d816f2674fd8d3709b8b53c5cd61cb642917ab7e79db121ab9990c5a"),
    "analysis.table1": (
        "efd8ce3941b7fdc453d7363b6a4d5a35f62b07db21e79ce2145319903b4d6128"),
    "analysis.table2_transfers": (
        "1c2ef77f78da30bec875dbd21f63a9f0301602536b7c24d0093c6300a07dcc14"),
    "analysis.table2_jobs": (
        "e9a57741a4b42dabcf24166c2733e3e33571077527f0367c01955cd602bd96b4"),
    "analysis.top_local": (
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "analysis.top_remote": (
        "bfe5158bf3616bdc6d584d1cec332fe83ea3c2749c12caa89369b6453700ffe0"),
    "analysis.thresholds": (
        "406fb8fe9ca794328db42ebe581c2a9fed09bcc4edcdf498e0274a4375a28cea"),
    "analysis.sites": (
        "f662c48f03529c348cd3ed989baecfae2e72325df631b3f0e1fa68fb91531ff0"),
    "analysis.volume": (
        "7dc63b6e73ce679f9a822ac1aad0c05200600abb5c805befde3ea09bfdcf4d7a"),
    "analysis.submissions": (
        "4bcf69481b5cdee90eeea81e8ea921546cc1d26190a78413b99f9869f4f8482a"),
    "pairs.exact": (
        "f842c402247191028e9189881752adc53e2dd67b0c63379751a472a1a4a54244"),
    "pairs.rm1": (
        "69eef5ce26597aa074f0aa223a741e6218669a923c381d8ee42c55ac54ab6498"),
    "pairs.rm2": (
        "fb4dd68c263bfe9679ee8b41edfbd33ec6fdd8fa34775f9025b251ccd642a738"),
    "pairs.rm3": (
        "e77508abf5cebdae8633756ad27da05db8b41232e618fd699a06f8184b22f846"),
    "rm3_sweep": (
        "4556d786f57b53c2809bcfdf16324ecf6f0244d5b01b36f1ece0f1f7609591be"),
}


def _feed(h, obj) -> None:
    """Feed one value's canonical encoding into ``h``."""
    if isinstance(obj, np.ndarray):
        h.update(f"ndarray:{obj.dtype.str}:{obj.shape}:".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, enum.Enum):
        h.update(f"{type(obj).__name__}.{obj.name};".encode())
    elif dataclasses.is_dataclass(obj):
        h.update(f"{type(obj).__name__}(".encode())
        for f in dataclasses.fields(obj):
            if f.compare:
                h.update(f"{f.name}=".encode())
                _feed(h, getattr(obj, f.name))
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(b"{")
        for key, value in obj.items():
            _feed(h, key)
            h.update(b":")
            _feed(h, value)
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, float):
        h.update(f"f{obj.hex()};".encode())
    elif isinstance(obj, (bool, int, str)) or obj is None:
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    else:
        raise TypeError(f"no canonical encoding for {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def window_digests() -> dict:
    """Digest of every pinned output of the 3,600-job rung."""
    ds = synthesize(RUNG)
    plan = WindowPlan(*ds.window)
    known = ds.known_sites
    matchers = default_matchers(known) + [RM3Matcher(known)]
    out = {
        f"analysis.{name}": digest(value)
        for name, value in run_analyses(
            ds.source, plan, DEFAULT_ANALYSES, known_sites=known
        ).items()
    }
    artifacts = ArtifactCache(ds.source).get(plan)
    report = build_report(artifacts, matchers)
    for m in report.methods:
        out[f"pairs.{m}"] = digest(report[m].matched_pairs())
    sweep = []
    for theta in RM3_SWEEP:
        r = match_artifacts(RM3Matcher(known, threshold=theta), artifacts)
        sweep.append((theta, r.n_matched_jobs, r.n_matched_transfers))
    out["rm3_sweep"] = digest(sweep)
    return out


@pytest.mark.parametrize("seed,days", sorted(TELEMETRY_PINS))
def test_degraded_telemetry_pinned(seed, days):
    assert _world(seed, days) == TELEMETRY_PINS[(seed, days)]


def test_window_outputs_pinned():
    assert window_digests() == WINDOW_PINS


class TestDigest:
    def test_arrays_hash_every_element(self):
        """Two long arrays differing in one middle element, whose
        reprs are equal (NumPy elides the middle), hash apart."""
        a = np.zeros(5_000)
        b = a.copy()
        b[2_500] = 1.0
        assert repr(a) == repr(b)
        assert digest(a) != digest(b)

    def test_floats_hash_exactly(self):
        assert digest(0.1 + 0.2) != digest(0.3)
        assert digest(0.0) != digest(-0.0)

    def test_dict_order_counts(self):
        assert digest({"a": 1, "b": 2}) != digest({"b": 2, "a": 1})
