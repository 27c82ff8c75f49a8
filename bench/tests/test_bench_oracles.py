"""Tests of the benchmark's own references and of its span bookkeeping.

The references in bench_oracles.py decide whether a benchmark run is
correct, so each is checked here against a closed form or a finite
difference that does not share its code.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import bench_oracles as oracles  # noqa: E402
import bench_tracing as tracing  # noqa: E402

MULTI_BAND = {"multi_centers_hz": [3.9e9, 3.5e9], "multi_spacings_hz": [120e3, 120e3],
              "multi_counts": [5, 7]}


def test_layout_frequencies_orders_bands_and_pins_the_first_center():
    fr = oracles.layout_frequencies(MULTI_BAND, "multi")
    assert fr["absolute"][0] == 3.5e9 - 3 * 120e3
    assert np.all(np.diff(fr["absolute"]) > 0)
    assert fr["pinned"][3] == 0.0                      # center of the lower band
    assert fr["band"].tolist() == [0] * 7 + [1] * 5
    assert fr["local"][7:].tolist() == [-2, -1, 0, 1, 2]
    single = oracles.layout_frequencies({"subcarriers": 4, "spacing_hz": 30e3}, "single")
    assert single["pinned"].tolist() == [0.0, 30e3, 60e3, 90e3]


def test_isl_quadrature_of_one_pilot_is_one():
    isl, tol = oracles.isl_by_quadrature(np.array([0.0]), 65e-9, 4e-6)
    assert abs(isl - 1.0) <= tol <= 1e-9


def test_isl_quadrature_matches_the_two_pilot_closed_form():
    a, b, df = 65.1e-9, 4.1666667e-6, 7 * 120e3
    # |chi|^2 = 2 + 2 cos(2 pi df t) for pilots df apart
    exact = (2 * (b - a) + (np.sin(2 * np.pi * df * b) - np.sin(2 * np.pi * df * a))
             / (np.pi * df)) / ((b - a) * 4)
    isl, tol = oracles.isl_by_quadrature(np.array([3.5e9, 3.5e9 + df]), a, b)
    assert abs(isl - exact) <= tol
    assert tol <= 1e-9 * exact


def _mean(fr, support, gains, theta):
    """Two-path multiband mean at parameters theta, written out term by term."""
    tau = theta[:2]
    alpha = theta[2:4] + 1j * theta[4:6]
    phi = np.concatenate([[0.0], theta[6:7]])
    delta = theta[7:9]
    out = []
    for i in support:
        f, m = fr["pinned"][i], fr["band"][i]
        nf = fr["local"][i] * fr["spacing"][i]
        paths = sum(alpha[k] * np.exp(-2j * np.pi * f * tau[k]) for k in range(2))
        out.append(np.exp(1j * phi[m]) * np.exp(-2j * np.pi * nf * delta[m]) * paths)
    return np.array(out)


def test_derivative_matrix_matches_central_differences():
    fr = oracles.layout_frequencies(MULTI_BAND, "multi")
    support = np.array([0, 2, 3, 6, 7, 9, 11])
    gains = np.array([1.0 + 0.5j, -0.7 + 0.2j])
    dtau = 3e-9
    D = oracles.derivative_matrix(fr, support, gains, np.array([dtau]), True)[0]
    theta = np.array([0.0, dtau, gains[0].real, gains[1].real, gains[0].imag,
                      gains[1].imag, 0.0, 0.0, 0.0])
    steps = np.array([1e-14, 1e-14, 1e-6, 1e-6, 1e-6, 1e-6, 1e-6, 1e-10, 1e-10])
    for j, h in enumerate(steps):
        e = np.zeros(len(theta))
        e[j] = h
        up, down = _mean(fr, support, gains, theta + e), _mean(fr, support, gains, theta - e)
        fd = (up - down) / (2 * h)
        assert np.allclose(D[:, j], fd, rtol=1e-5, atol=1e-6 * np.abs(fd).max()), j


def test_smallest_srl_is_the_first_root_of_g():
    fr = oracles.layout_frequencies({"subcarriers": 64, "spacing_hz": 120e3}, "single")
    support = np.sort(np.random.default_rng(3).choice(64, 32, replace=False))
    args = (fr, support, [1.0, 1.0], 0.1778)
    root = oracles.smallest_srl(*args, None, 0.05e-9, 50e-9)
    assert root is not None
    crb = oracles.crb_delta_tau(*args, np.array([root]), None)[0]
    assert abs(root - np.sqrt(crb)) < 1e-15
    below = np.linspace(0.05e-9, root, 400)[:-1]
    crb = oracles.crb_delta_tau(*args, below, None)
    assert np.all(below < np.sqrt(crb))


def test_structure_problems_flags_each_violation():
    assert oracles.structure_problems([[0, 1], [2, 3]], [2, 2], 4) == []
    assert oracles.structure_problems([[0, 1], [1, 3]], [2, 2], 4)      # shared row
    assert oracles.structure_problems([[0, 1], [2]], [2, 2], 4)         # short budget
    assert oracles.structure_problems([[0, 1], [2, 4]], [2, 2], 4)      # out of range
    assert oracles.structure_problems([[0, 0], [2, 3]], [2, 2], 4)      # repeated index


def test_trace_values_skips_comments():
    text = "# seed = 1\niteration,best_fitness,best_fitness_db\n0,0.5,-3.0\n1,0.25,-6.0\n"
    assert oracles.trace_values(text) == [0.5, 0.25]


def test_channel_of_one_path_is_a_phase_ramp():
    f = np.array([0.0, 1e6, 2e6])
    h = oracles.channel(f, np.array([1e-7]), np.array([2.0]))
    assert np.allclose(h, 2.0 * np.exp(-2j * np.pi * f * 1e-7))


def test_tracer_self_time_excludes_direct_children():
    tr = tracing.Tracer()
    child = tr.wrap("child", lambda: time.sleep(0.02))

    def parent():
        time.sleep(0.01)
        child()

    tr.call("parent", parent)
    tab = tr.table()
    assert tab["name"].tolist() == ["parent", "child"]
    assert tab["parent"].tolist() == [-1, 0]
    assert abs(tab["self"][0] - (tab["dur"][0] - tab["dur"][1])) < 1e-12
    assert 0.009 <= tab["self"][0] < tab["dur"][1]
