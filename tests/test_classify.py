import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chtg.classify import (BOUNDARY_NON_UNIPOTENT, HYPERBOLIC, INDETERMINATE,
                           REGULAR_ELLIPTIC, UNIPOTENT, classify, discriminant)
from chtg.traces import trace_oracle
from chtg.triangle import realize

from helpers import draw_params, random_u21


def test_discriminant_examples():
    assert discriminant(3.0) == 0.0
    assert abs(discriminant(-1.0)) < 1e-12
    assert discriminant(0.0) == -27.0


@given(st.floats(-20, 20, allow_nan=False))
def test_discriminant_real_factorisation(x):
    want = (x + 1.0) * (x - 3.0) ** 3
    assert abs(discriminant(x) - want) <= 1e-9 * max(1.0, abs(want))


def test_classify_examples():
    assert classify(1.0).verdict == REGULAR_ELLIPTIC
    assert classify(3.0).verdict == UNIPOTENT
    assert classify(5.0).verdict == HYPERBOLIC
    assert classify(-1.0).verdict == BOUNDARY_NON_UNIPOTENT


def test_classify_real_interval_rule(rng):
    for _ in range(1000):
        x = float(rng.uniform(-6, 8))
        rho = discriminant(x)
        if abs(rho) <= 1e-9:
            continue
        verdict = classify(x).verdict
        if -1.0 < x < 3.0:
            assert verdict == REGULAR_ELLIPTIC
        else:
            assert verdict == HYPERBOLIC


def test_classify_indeterminate():
    assert classify(complex(math.nan, 0.0)).verdict == INDETERMINATE
    assert classify(complex(math.inf, 1.0)).verdict == INDETERMINATE


def test_conjugation_invariance(rng):
    for _ in range(40):
        p = draw_params(rng)
        rz = realize(p)
        tau = trace_oracle((1, 2, 3, 2), rz).value
        u = random_u21(rng)
        m = u @ rz.iotas[0] @ rz.iotas[1] @ rz.iotas[2] @ rz.iotas[1] @ np.linalg.inv(u)
        tau2 = complex(np.trace(m))
        c1 = classify(tau)
        c2 = classify(tau2)
        if abs(c1.rho) > 1e-6:  # stay outside the boundary band
            assert c1.verdict == c2.verdict


def test_generator_pair_products(rng):
    # iota_{k-1} iota_{k+1} is elliptic exactly when the sides meet (r_k < 1)
    pairs = {1: (3, 2), 2: (1, 3), 3: (2, 1)}
    for _ in range(30):
        p = draw_params(rng)
        rz = realize(p)
        for k, (a, b) in pairs.items():
            tau = trace_oracle((a, b), rz).value
            assert abs(tau - (4 * p.r[k - 1] ** 2 - 1)) < 1e-9
            verdict = classify(tau).verdict
            if p.r[k - 1] < 1.0 - 1e-6:
                assert verdict == REGULAR_ELLIPTIC
            elif p.r[k - 1] > 1.0 + 1e-6:
                assert verdict == HYPERBOLIC


def test_json_shape():
    d = classify(1.0 + 2.0j).to_json_dict()
    assert set(d) == {"verdict", "rho", "tau"}
    assert set(d["tau"]) == {"re", "im"}


def test_isometry_class_keeps_its_api():
    cls = classify(1.0 + 2.0j, tol=1e-6)
    assert cls.verdict == HYPERBOLIC and cls.tau == 1.0 + 2.0j
    assert cls.rho == discriminant(1.0 + 2.0j) and cls.tol == 1e-6
    assert cls.to_json_dict() == {"verdict": HYPERBOLIC, "rho": cls.rho,
                                  "tau": {"re": 1.0, "im": 2.0}}
    for field in ("verdict", "rho", "tau", "tol"):
        with pytest.raises(AttributeError):
            setattr(cls, field, None)


def test_discriminant_overflow_is_inf():
    # |tau|^3 past the float range: Python's complex power raises, and rho,
    # which |tau|^4 dominates, is +inf
    for tau in (1e103, 1e103j, complex(-1e103, 1e103)):
        cls = classify(tau)
        assert (cls.verdict, cls.rho) == (HYPERBOLIC, math.inf)
