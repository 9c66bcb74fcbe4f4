"""The admissibility sweep evaluates its kept draws in blocks: the same bytes
as a per-draw loop, three transform calls per block, no use of the shared
symbol cache, and a memory peak set by the block, not by the draw count."""

import math
import tracemalloc

import numpy as np
import pytest

from iswaves import cli, spectral
from iswaves import config as cfgmod
from iswaves.params import (
    ModelParams,
    compute_f_min,
    compute_mu2_threshold,
    compute_speed_window,
)
from iswaves.spectral import irfft, make_grid, rfft, zcothz

B = cli._SWEEP_BLOCK


def _per_draw_sweep(cfg: dict, path: str) -> int:
    """The sweep as one loop over the draws, each with its own tables, split
    minimum, pairs, gradient and np.dot products: the tables written out
    from their formulas, and the split and E stated inline.  Writes the
    report to path and returns the number of kept draws."""
    draws = cfg.get("sweep.draws", 200)
    fields_per_draw = cfg.get("sweep.fields_per_draw", 5)
    seed = cfg.get("seed", 0)
    rng = np.random.default_rng(seed)
    grid = make_grid(20.0, 256)
    k = grid.k_half
    cut = grid.dealias_cut

    violations = []
    min_eigen_global = math.inf
    min_energy = math.inf
    kept = 0
    for i in range(draws):
        gamma = rng.uniform(0.1, 0.9)
        b = rng.uniform(1.0 / 6.0, 0.6)
        t = rng.uniform(0.05, 0.95)
        rest = 1.0 / 3.0 - 2.0 * b
        a = t * rest
        c = (1.0 - t) * rest
        mu = rng.uniform(0.05, 0.5)
        p_inf = ModelParams(gamma=gamma, epsilon=0.1, mu=mu, a=a, b=b, c=c, d=b)
        bound = compute_speed_window(p_inf)
        omega = rng.uniform(0.0, 0.95) * bound
        f_min, _, _ = compute_f_min(p_inf, omega)
        if f_min <= 0.0:
            continue
        kept += 1
        threshold = compute_mu2_threshold(p_inf, omega)
        mu2 = threshold * rng.uniform(1.05, 10.0)

        s = math.sqrt(mu2)
        l1 = zcothz(s * k) / s
        a11 = (1.0 - gamma) * (1.0 - mu * c * k * k)
        a12 = -omega * (1.0 + mu * b * k * k)
        a22 = (
            1.0 / gamma
            - math.sqrt(mu) / gamma**2 * l1
            - mu / gamma * a * k * k
            + mu / gamma**3 * l1**2
        )
        cross = np.abs(a12)
        global_min = float(np.min(np.minimum(a11 - cross, a22 - cross)))
        min_eigen_global = min(min_eigen_global, global_min)
        if global_min <= 0.0:
            violations.append({"draw": i, "kind": "quadratic_form", "global_min": global_min})

        z = rng.standard_normal((fields_per_draw, 2, 2, cut + 1))
        spec = np.zeros((fields_per_draw, 2, grid.N // 2 + 1), dtype=complex)
        spec[..., : cut + 1] = z[:, :, 0] + 1j * z[:, :, 1]
        spec[..., 0] = spec[..., 0].real
        pairs = irfft(spec, grid.N)
        f = rfft(pairs)
        xi, nu = f[..., 0, :], f[..., 1, :]
        grads = irfft(np.stack([a11 * xi + a12 * nu, a12 * xi + a22 * nu], axis=-2), grid.N)
        for x, ax in zip(pairs, grads):
            scale = grid.dx * (np.dot(x[0], x[0]) + np.dot(x[1], x[1]))
            e_norm = 0.5 * float(grid.dx * np.vdot(x, ax)) / scale
            min_energy = min(min_energy, e_norm)
            if e_norm < -1e-12:
                violations.append({"draw": i, "kind": "energy", "value": e_norm})

    report = {
        "draws": draws,
        "fields_per_draw": fields_per_draw,
        "seed": seed,
        "violations": violations,
        "min_quadratic_form": min_eigen_global,
        "min_normalized_energy": min_energy,
    }
    cfgmod.write_json(path, report, cfg)
    return kept


def _sets(seed, draws, fields):
    return [f"seed={seed}", f"sweep.draws={draws}", f"sweep.fields_per_draw={fields}"]


@pytest.mark.parametrize("fields", [1, 5])
@pytest.mark.parametrize("draws", [1, B - 1, B, B + 1, 200])
@pytest.mark.parametrize("seed", [0, 1, 7, 3401])
def test_blocked_sweep_writes_the_bytes_of_the_per_draw_loop(
    tmp_path, capsys, seed, draws, fields
):
    # every draw of these seeds is kept, so the blocks cover 1, B - 1, B,
    # B + 1 and 200 kept draws; a skipped draw (f_min <= 0) takes its
    # uniforms and nothing else, in its turn of the one generator loop, so
    # skipping keeps the generator order by construction
    sets = _sets(seed, draws, fields)
    args = ["sweep", "--out", str(tmp_path / "blocked")]
    assert cli.main(args + [a for s in sets for a in ("--set", s)]) == 0
    capsys.readouterr()
    cfg = cfgmod.apply_overrides({}, sets)
    assert _per_draw_sweep(cfg, str(tmp_path / "per_draw.json")) == draws
    blocked = (tmp_path / "blocked" / "sweep.json").read_bytes()
    assert blocked == (tmp_path / "per_draw.json").read_bytes()


def test_sweep_makes_three_transform_calls_per_block(tmp_path, capsys, fft_calls):
    # one irfft for the pairs and one rfft/irfft pair for grad E, per block
    # of B kept draws (a per-draw loop: 600)
    before = spectral.symbols.cache_info()
    args = ["sweep", "--out", str(tmp_path)]
    assert cli.main(args + [a for s in _sets(7, 200, 5) for a in ("--set", s)]) == 0
    capsys.readouterr()
    assert fft_calls["n"] == 3 * math.ceil(200 / B)
    # the draws' tables are built outside the shared cache: no miss, and no
    # entry of the solvers or of the evolution evicted
    assert spectral.symbols.cache_info() == before


def _sweep_peak(out: str, draws: int) -> int:
    tracemalloc.start()
    try:
        cli.cmd_sweep({"seed": 7, "sweep.draws": draws, "sweep.fields_per_draw": 5}, out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_is_set_by_the_block(tmp_path, capsys):
    # a block of B draws holds its tables, pairs, spectra and gradients;
    # nothing grows with the number of draws (one block of all 200 draws
    # peaks near 27 MiB)
    out = str(tmp_path)
    _sweep_peak(out, B)
    peak_50 = _sweep_peak(out, 50)
    peak_200 = _sweep_peak(out, 200)
    capsys.readouterr()
    assert peak_200 <= 1.5 * 2**20, peak_200
    assert peak_200 <= 1.1 * peak_50, (peak_200, peak_50)
