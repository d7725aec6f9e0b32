"""Criterion functionals: verdicts against closed-form exponent oracles."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from bergman import test_function as probe_function
from bergman import (
    AtomicMeasure,
    DomainError,
    Identity,
    Moebius,
    OperatorSpec,
    Polynomial,
    QuadratureGrid,
    RadialDensityMeasure,
    RadialWeight,
    Scale,
    SelfMap,
    SelfMapViolationError,
    berezin_criterion,
    embedding_ls_criterion,
    embedding_sup_criterion,
    gamma_exponent,
    hinf_criterion,
    norm_equivalence_ratios,
    op_pushforward_criterion,
    operator_norm_lower_bound,
    verify_gamma,
)
from bergman import criteria, geometry, measures

ONE = Polynomial([1.0])


def sup_exponent(alpha, beta, p, q, n):
    """Boundary exponent of mu(Delta)/ (wS^{q/p} gap^{nq}) for the standard
    family; the supremum is finite iff it is >= 0."""
    return beta + 2.0 - (alpha + 2.0) * q / p - n * q


def ls_exponent(alpha, beta, p, q, n):
    """Radial integrability exponent of the q<p criterion; the L^s norm is
    finite iff it is > -1."""
    s = p / (p - q)
    return s * (beta - alpha - n * q) + alpha


def beta_for_sup_margin(alpha, p, q, n, margin):
    return (alpha + 2.0) * q / p + n * q - 2.0 + margin


def beta_for_ls_margin(alpha, p, q, n, margin):
    s = p / (p - q)
    return (-1.0 + margin - alpha) / s + alpha + n * q


class TestEmbeddingSup:
    def test_zero_measure(self, unit_weight):
        mu = AtomicMeasure(np.array([], dtype=complex), np.array([]))
        report = embedding_sup_criterion(1.0, 2.0, 0, unit_weight, mu)
        assert report.statistic == 0.0
        assert report.verdict == "bounded-consistent"

    @pytest.mark.parametrize("alpha,p,q,n", [(0.0, 1.0, 2.0, 1), (1.0, 2.0, 4.0, 0)])
    @pytest.mark.parametrize("margin", [0.3, -0.3])
    def test_standard_family_margins(self, grid8, alpha, p, q, n, margin):
        w = RadialWeight.power(alpha)
        beta = beta_for_sup_margin(alpha, p, q, n, margin)
        mu = RadialDensityMeasure.from_power(beta, grid8)
        report = embedding_sup_criterion(p, q, n, w, mu, r=0.3)
        expected = "bounded-consistent" if margin > 0 else "divergent"
        assert report.verdict == expected

    def test_compact_side_tail_vanishes(self, grid8, unit_weight):
        beta = beta_for_sup_margin(0.0, 1.0, 2.0, 1, 0.3)
        mu = RadialDensityMeasure.from_power(beta, grid8)
        report = embedding_sup_criterion(1.0, 2.0, 1, unit_weight, mu, r=0.3)
        tail_vals = [v for _, v in report.tail]
        assert tail_vals[-1] < 0.5 * tail_vals[0]

    def test_monotone_in_measure(self, grid8, unit_weight):
        mu_small = RadialDensityMeasure.from_power(2.0, grid8)
        mu_big = RadialDensityMeasure(lambda u: u ** 2.0 + 0.5 * u ** 2.5, grid8, name="bigger")
        small = embedding_sup_criterion(1.0, 1.0, 0, unit_weight, mu_small)
        big = embedding_sup_criterion(1.0, 1.0, 0, unit_weight, mu_big)
        for (_, v1), (_, v2) in zip(small.samples, big.samples):
            assert v2 >= v1

    def test_verdicts_stable_in_r(self, grid8):
        # "for some (equivalently for all) r": verdict level, not value level
        for margin in (0.3, -0.3):
            w = RadialWeight.power(1.0)
            beta = beta_for_sup_margin(1.0, 2.0, 4.0, 1, margin)
            mu = RadialDensityMeasure.from_power(beta, grid8)
            verdicts = {
                embedding_sup_criterion(2.0, 4.0, 1, w, mu, r=r).verdict
                for r in (0.1, 0.3, 0.5)
            }
            assert len(verdicts) == 1

    def test_exponent_domain(self, unit_weight, grid8):
        mu = RadialDensityMeasure.from_power(1.0, grid8)
        with pytest.raises(DomainError):
            embedding_sup_criterion(2.0, 1.0, 0, unit_weight, mu)

    def test_atomic_measure_supported(self, rng, unit_weight):
        pts = np.sqrt(rng.uniform(0, 1, 2000)) * 0.99 * np.exp(
            2j * np.pi * rng.uniform(0, 1, 2000))
        mu = AtomicMeasure(pts, np.full(2000, 1.0 / 2000))
        report = embedding_sup_criterion(1.0, 1.0, 0, unit_weight, mu, depth=8)
        assert np.isfinite(report.statistic) and report.statistic > 0

    def test_tail_sups_monotone(self, grid8, unit_weight):
        mu = RadialDensityMeasure.from_power(2.5, grid8)
        report = embedding_sup_criterion(1.0, 2.0, 0, unit_weight, mu)
        tail_vals = [v for _, v in report.tail]
        assert all(a >= b - 1e-15 for a, b in zip(tail_vals, tail_vals[1:]))


class TestDyadicBands:
    def test_band_is_closed_at_the_top(self):
        # 2^-k and the next double above 2^-(k+1) both lie in band k,
        # (2^-(k+1), 2^-k], the band whose top the tail mask gaps <= 2^-k closes
        for k in range(61):
            gaps = np.array([2.0 ** -k, np.nextafter(2.0 ** -(k + 1), 1.0)])
            assert geometry._band(gaps).tolist() == [k, k], k


def mask_loop_tail(gaps, vals, reduce):
    """The tail summary as a loop of masks gaps <= 2^-k, the form the band
    rule replaced."""
    if len(gaps) == 0:
        return []
    out = []
    k = 0
    min_gap = np.min(gaps)
    while 2.0 ** (-k) >= min_gap * (1.0 - 1e-12):
        mask = gaps <= 2.0 ** (-k)
        if not np.any(mask):
            break
        out.append((2.0 ** (-k), float(reduce(vals[mask]))))
        k += 1
    return out


class TestTail:
    @pytest.mark.parametrize("reduce", [np.max, np.sum])
    @pytest.mark.parametrize("n", [0, 1, 9, 2000])
    def test_matches_mask_loop_bitwise(self, reduce, n):
        # random gaps mixed with exact powers of two and their neighbours
        rng = np.random.default_rng(40 + n)
        gaps = 2.0 ** -rng.uniform(0.0, 30.0, n)
        powers = np.ldexp(1.0, -rng.integers(0, 31, n // 3))
        gaps = np.concatenate([gaps, powers, np.nextafter(powers[: n // 9], 0.0),
                               np.nextafter(powers[: n // 9], 2.0)])
        gaps = gaps[gaps <= 1.0]
        rng.shuffle(gaps)
        vals = rng.lognormal(0.0, 3.0, len(gaps))
        got = criteria._tail(geometry._band(gaps), vals, reduce)
        want = mask_loop_tail(gaps, vals, reduce)
        assert [(d.hex(), v.hex()) for d, v in got] == [(d.hex(), v.hex()) for d, v in want]


class TestEmbeddingLs:
    def test_zero_measure(self, unit_weight):
        mu = AtomicMeasure(np.array([], dtype=complex), np.array([]))
        report = embedding_ls_criterion(2.0, 1.0, 0, unit_weight, mu)
        assert report.statistic == 0.0

    @pytest.mark.parametrize("alpha,p,q,n", [(0.0, 2.0, 1.0, 1), (1.0, 4.0, 1.0, 0)])
    @pytest.mark.parametrize("margin", [0.3, -0.3])
    def test_finiteness_margins(self, grid8, alpha, p, q, n, margin):
        w = RadialWeight.power(alpha)
        beta = beta_for_ls_margin(alpha, p, q, n, margin)
        mu = RadialDensityMeasure.from_power(beta, grid8)
        report = embedding_ls_criterion(p, q, n, w, mu, r=0.3)
        expected = "bounded-consistent" if margin > 0 else "divergent"
        assert report.verdict == expected

    def test_interior_norm_against_1d_oracle(self, grid8, unit_weight):
        # frozen from the independent scipy oracle (arc-length reduction of
        # the disc mass plus radial integration); see also the acceptance run
        mu = RadialDensityMeasure.from_power(2.0, grid8)
        report = embedding_ls_criterion(2.0, 1.0, 1, unit_weight, mu, r=0.3)
        assert report.statistic == pytest.approx(0.3834585286374044, rel=0.01)


class TestOpPushforward:
    def test_identity_matches_embedding(self, rng, unit_weight):
        pts = np.sqrt(rng.uniform(0, 1, 4000)) * 0.995 * np.exp(
            2j * np.pi * rng.uniform(0, 1, 4000))
        nu = AtomicMeasure(pts, rng.uniform(0, 1, 4000))
        op = OperatorSpec(Identity(), ONE, 1)
        direct = embedding_ls_criterion(2.0, 1.0, 1, unit_weight, nu, r=0.3)
        via_op = op_pushforward_criterion(op, 2.0, 1.0, unit_weight, nu, r=0.3)
        assert via_op.statistic == direct.statistic
        assert via_op.verdict == direct.verdict
        assert [v for _, v in via_op.samples] == [v for _, v in direct.samples]

    def test_contractive_image_always_finite(self, grid8, unit_weight):
        op = OperatorSpec(Scale(0.5), ONE, 1)
        nu = RadialDensityMeasure.from_power(0.0, grid8)
        report = op_pushforward_criterion(op, 2.0, 1.0, unit_weight, nu,
                                          level=grid8.levels)
        assert report.verdict == "bounded-consistent"
        assert np.isfinite(report.statistic)

    def test_monotone_in_symbol(self, grid8, unit_weight):
        nu = RadialDensityMeasure.from_power(0.0, grid8)
        op_full = OperatorSpec(Identity(), ONE, 0)
        # |u| <= 1 with a flat dead zone
        u_small = Polynomial([0.5, 0.0, 0.25])
        op_small = OperatorSpec(Identity(), u_small, 0)
        full = op_pushforward_criterion(op_full, 2.0, 1.0, unit_weight, nu,
                                        level=grid8.levels)
        small = op_pushforward_criterion(op_small, 2.0, 1.0, unit_weight, nu,
                                         level=grid8.levels)
        assert small.statistic <= full.statistic


class TestBerezin:
    def test_zero_symbol(self, unit_weight, grid8):
        op = OperatorSpec(Identity(), Polynomial([0.0]), 0)
        nu = RadialDensityMeasure.from_weight(unit_weight, grid8)
        report = berezin_criterion(op, 2.0, 2.0, unit_weight, nu, 3.0, grid=grid8)
        assert report.statistic == 0.0
        assert report.verdict == "bounded-consistent"

    @pytest.mark.parametrize("pq,n", [((2.0, 2.0), 0), ((1.0, 2.0), 1)])
    @pytest.mark.parametrize("margin", [0.3, -0.3])
    def test_classical_condition(self, grid10, pq, n, margin):
        # classical exponent condition beta+2 >= (alpha+2) q/p + n q
        p, q = pq
        alpha = 0.0
        w = RadialWeight.power(alpha)
        beta = beta_for_sup_margin(alpha, p, q, n, margin)
        nu = RadialDensityMeasure.from_weight(RadialWeight.power(beta), grid10)
        gamma = 2.0 * (alpha + 3.0) / p
        op = OperatorSpec(Identity(), ONE, n)
        report = berezin_criterion(op, p, q, w, nu, gamma, grid=grid10)
        expected = "bounded-consistent" if margin > 0 else "divergent"
        assert report.verdict == expected

    def test_contractive_image_compact(self, unit_weight, grid8):
        op = OperatorSpec(Scale(0.5), ONE, 0)
        nu = RadialDensityMeasure.from_weight(unit_weight, grid8)
        report = berezin_criterion(op, 2.0, 2.0, unit_weight, nu, 3.0, grid=grid8)
        assert report.verdict == "bounded-consistent"
        assert report.compact_verdict == "vanishing-tail"

    def test_symbol_scaling_covariance(self, unit_weight, grid8):
        q = 2.0
        base = OperatorSpec(Identity(), ONE, 0)
        scaled = OperatorSpec(Identity(), Polynomial([3.0]), 0)
        nu = RadialDensityMeasure.from_weight(unit_weight, grid8)
        r1 = berezin_criterion(base, 2.0, q, unit_weight, nu, 3.0, grid=grid8)
        r2 = berezin_criterion(scaled, 2.0, q, unit_weight, nu, 3.0, grid=grid8)
        assert r2.statistic == pytest.approx(3.0 ** q * r1.statistic, rel=1e-12)

    def test_unvalidated_gamma_noted(self, unit_weight, grid8):
        op = OperatorSpec(Identity(), ONE, 0)
        nu = RadialDensityMeasure.from_weight(unit_weight, grid8)
        report = berezin_criterion(op, 2.0, 2.0, unit_weight, nu, 3.0, grid=grid8)
        assert any("gamma" in note for note in report.notes)

    @pytest.mark.parametrize("level, steps, passed", [(4, 4, False), (6, 1, True)])
    def test_gamma_escalates_until_verified(self, unit_weight, monkeypatch,
                                            level, steps, passed):
        # gamma=None: gamma_exponent, times 1.5 after each failed
        # kernel-domination test, at most three times; when no step passes
        # the last one is used, with a warning note
        grid = QuadratureGrid(level)
        calls = []
        verify = criteria.verify_gamma
        monkeypatch.setattr(criteria, "verify_gamma",
                            lambda *a, **kw: calls.append(a[2]) or verify(*a, **kw))
        op = OperatorSpec(Identity(), ONE, 0)
        nu = RadialDensityMeasure.from_weight(unit_weight, grid)
        report = berezin_criterion(op, 2.0, 2.0, unit_weight, nu, None, grid=grid)
        gamma0 = gamma_exponent(unit_weight, 2.0)
        assert calls == [gamma0, gamma0 * 1.5, gamma0 * 1.5 * 1.5,
                         gamma0 * 1.5 * 1.5 * 1.5][:steps]
        assert report.params["gamma"] == calls[-1]
        warned = "warning: gamma failed the kernel-domination test" in report.notes
        assert warned != passed
        assert not any("not validated" in note for note in report.notes)

    def test_embedding_crosscheck(self, grid8, unit_weight):
        # q >= p: with phi the identity and u = 1 the kernel integral tests
        # the embedding itself, so on both sides of the exponent boundary
        # the Berezin verdict matches the supremum criterion's
        # (gamma=None: the criterion validates its own exponent, and it passes)
        p, q, n = 1.0, 2.0, 0
        op = OperatorSpec(Identity(), ONE, n)
        for margin, expected in ((0.4, "bounded-consistent"), (-0.4, "divergent")):
            beta = beta_for_sup_margin(0.0, p, q, n, margin)
            mu = RadialDensityMeasure.from_power(beta, grid8)
            sup = embedding_sup_criterion(p, q, n, unit_weight, mu)
            berezin = berezin_criterion(op, p, q, unit_weight, mu, None, grid=grid8)
            assert not any("gamma" in note for note in berezin.notes)
            assert (sup.verdict, berezin.verdict) == (expected, expected), margin

    def test_self_map_leaving_the_disc(self, unit_weight, grid8):
        """Berezin checks the images of the support and hinf those of the
        grid; a map that sends either outside the disc raises."""

        class Stretch(SelfMap):
            def __call__(self, z):
                return 1.5 * np.asarray(z)

            def image_radius(self, s):
                return 1.5 * s

        op = OperatorSpec(Stretch(), ONE, 0)
        nu = RadialDensityMeasure.from_weight(unit_weight, grid8)
        with pytest.raises(SelfMapViolationError, match="on the support"):
            berezin_criterion(op, 2.0, 2.0, unit_weight, nu, 3.0, grid=grid8)
        with pytest.raises(SelfMapViolationError, match="on the grid"):
            hinf_criterion(op, 2.0, unit_weight, grid=grid8)


class TestKernelSweep:
    """The Berezin sweep in row chunks and support slices against the direct
    full-block kernel sum."""

    @staticmethod
    def problem(n_pts, n_support, seed):
        gen = np.random.default_rng(seed)

        def disc_points(n, radius):
            return (radius * np.sqrt(gen.uniform(0, 1, n))
                    * np.exp(2j * np.pi * gen.uniform(0, 1, n)))

        pts, phin = disc_points(n_pts, 0.999), disc_points(n_support, 0.99)
        return pts, phin, gen.uniform(0.0, 1.0, n_support)

    @staticmethod
    def sweep(pts, phin, uq, e):
        """One _kernel_sweep call into zeros, on its own pool."""
        out = np.zeros(len(pts))
        with criteria._sweep_pool(len(pts)) as pool:
            criteria._kernel_sweep(pts, phin, uq, e, out, pool)
        return out

    @staticmethod
    def direct(pts, phin, uq, e):
        return np.abs(1.0 - np.conj(pts)[:, None] * phin[None, :]) ** (-e) @ uq

    @pytest.mark.parametrize("n_pts", [1, 16, 37, criteria._SWEEP_ROWS + 1,
                                       2 * criteria._SWEEP_ROWS + 3])
    def test_matches_full_block(self, n_pts):
        # 3,195 support nodes: three full slices and a partial one
        pts, phin, uq = self.problem(n_pts, 3 * criteria._SWEEP_SLICE + 123, n_pts)
        got = self.sweep(pts, phin, uq, 5.3)
        want = self.direct(pts, phin, uq, 5.3)
        assert got.shape == (n_pts,)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_independent_of_cpu_count(self, monkeypatch):
        # 3 chunks on 1 CPU, and on 64 CPUs (fewer chunks than CPUs)
        pts, phin, uq = self.problem(2 * criteria._SWEEP_ROWS + 5, 2500, 7)
        runs = []
        for cpus in (1, 64):
            monkeypatch.setattr(criteria.os, "sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)))
            runs.append(self.sweep(pts, phin, uq, 4.0))
        assert np.array_equal(runs[0], runs[1])
        np.testing.assert_allclose(runs[0], self.direct(pts, phin, uq, 4.0),
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("e", [4, 8])
    def test_exact_near_boundary(self, e):
        # each of 20 basepoints, with |a| up to 1 - 2^-12, against 20 images
        # two to eight gaps from a/|a|: 400 pairs where 1 - Re(conj(a) w)
        # cancels most digits.  At an even exponent the kernel
        # ((1 - Re)^2 + Im^2)^(-e/2) of the floats is a rational number, so
        # each row is checked against its exact Fraction sum.
        gen = np.random.default_rng(5)
        gaps = 2.0 ** -gen.integers(1, 13, 20)
        dirs = np.exp(2j * np.pi * gen.uniform(0.0, 1.0, 20))
        pts = (1.0 - gaps) * dirs
        depth = gen.uniform(2.0, 8.0, (20, 20)) * gaps[:, None]
        turn = gen.uniform(-8.0, 8.0, (20, 20)) * gaps[:, None]
        images = dirs[:, None] * (1.0 - depth) * np.exp(1j * turn)
        uqs = gen.uniform(0.5, 1.0, (20, 20))
        for i, a in enumerate(pts):
            got = self.sweep(pts, images[i], uqs[i], float(e))[i]
            ax, ay = Fraction(a.real), Fraction(a.imag)
            want = Fraction(0)
            for w, u in zip(images[i], uqs[i]):
                wx, wy = Fraction(w.real), Fraction(w.imag)
                s = (1 - (ax * wx + ay * wy)) ** 2 + (ax * wy - ay * wx) ** 2
                want += Fraction(u) / s ** (e // 2)
            assert abs(Fraction(got) - want) <= Fraction(1, 10 ** 12) * want, i

    def test_every_basepoint_truncated(self, unit_weight, grid8):
        # wS(a)^(q/p) underflows below the mass floor at both basepoints
        op = OperatorSpec(Identity(), ONE, 0)
        nu = RadialDensityMeasure.from_weight(unit_weight, grid8)
        report = berezin_criterion(op, 1.0, 100.0, unit_weight, nu, 3.0,
                                   basepoints=[0.999, 0.999j], grid=grid8)
        assert report.truncated == 2
        assert report.samples == [] and report.statistic == 0.0
        assert len(self.sweep(np.zeros(0, complex), np.zeros(5, complex),
                                  np.ones(5), 3.0)) == 0

    @pytest.mark.skipif(shutil.which("taskset") is None
                        or not hasattr(os, "sched_getaffinity"), reason="needs taskset")
    def test_report_independent_of_affinity(self, tmp_path):
        # one CPU, every CPU, and a caller-set 2-thread OpenBLAS pool, on the
        # Berezin sweep and on verify lemma21 (whose tail sums are dgemvs)
        cases = {
            "berezin": (["criterion", "berezin"], {
                "schema": 1, "p": 2.0, "q": 2.0, "grid_level": 8, "gamma": 3.0,
                "weight": {"kind": "power", "alpha": 1.0},
                "target_weight": {"kind": "power", "alpha": 4.5},
                "operator": {"phi": {"kind": "moebius", "c": [0.3, 0.1]},
                             "u": {"kind": "poly", "coeffs": [[1, 0], [0.5, 0.5]]},
                             "n": 1}}),
            "lemma21": (["verify", "lemma21"], {
                "schema": 1, "p": 2.0, "grid_level": 6, "seed": 7,
                "weight": {"kind": "log_power", "alpha": 1.0, "b": 2.0}}),
        }
        src = os.path.dirname(os.path.dirname(criteria.__file__))
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        one_cpu = ["taskset", "-c", str(min(os.sched_getaffinity(0)))]
        runs = (("one", one_cpu, {}), ("all", [], {}),
                ("blas2", [], {"OPENBLAS_NUM_THREADS": "2"}))
        for case, (command, config) in cases.items():
            cfg = tmp_path / f"{case}.json"
            cfg.write_text(json.dumps(config))
            blobs = []
            for name, prefix, extra in runs:
                out = tmp_path / case / name
                subprocess.run([*prefix, sys.executable, "-m", "bergman", *command,
                                "--config", str(cfg), "--out", str(out),
                                "--deterministic"], env={**env, **extra}, check=True,
                               capture_output=True, timeout=300)
                blobs.append((out / "report.json").read_bytes())
            assert blobs[0] == blobs[1] == blobs[2], case


class TestHinf:
    def test_contractive_scale(self, unit_weight, grid8):
        op = OperatorSpec(Scale(0.5), ONE, 0)
        report = hinf_criterion(op, 2.0, unit_weight, grid=grid8)
        assert report.verdict == "bounded-consistent"
        assert report.compact_verdict == "vanishing-tail"
        assert report.params["sup_phi_structural"] == pytest.approx(0.5)

    def test_json_keys_are_the_fields(self, unit_weight, grid8):
        # the JSON form renames nothing; only the samples' basepoints split
        report = hinf_criterion(OperatorSpec(Scale(0.5), ONE, 0), 2.0, unit_weight,
                                grid=grid8)
        result = report.to_json()
        assert list(result) == [f.name for f in dataclasses.fields(report)]
        assert result["samples"] == [[z.real, z.imag, v] for z, v in report.samples]
        assert all(isinstance(z, complex) for z, _ in report.samples)

    def test_zero_symbol(self, unit_weight, grid8):
        op = OperatorSpec(Scale(0.5), Polynomial([0.0]), 0)
        report = hinf_criterion(op, 2.0, unit_weight, grid=grid8)
        assert report.statistic == 0.0
        assert report.compact_verdict == "vanishing-tail"

    @pytest.mark.parametrize("alpha,p,n", [(0.0, 2.0, 0), (1.0, 1.0, 1)])
    def test_identity_diverges(self, grid8, alpha, p, n):
        # sup grows like (1-|z|)^{-(2+alpha)/p - n}
        w = RadialWeight.power(alpha)
        op = OperatorSpec(Identity(), ONE, n)
        report = hinf_criterion(op, p, w, grid=grid8)
        assert report.verdict == "divergent"
        expected_rate = 4.0 ** ((2.0 + alpha) / p + n)
        assert report.refinement["growth"] == pytest.approx(expected_rate, rel=0.3)

    def test_symbol_scaling_covariance(self, unit_weight, grid8):
        op1 = OperatorSpec(Scale(0.5), ONE, 0)
        op2 = OperatorSpec(Scale(0.5), Polynomial([2.0]), 0)
        r1 = hinf_criterion(op1, 2.0, unit_weight, grid=grid8)
        r2 = hinf_criterion(op2, 2.0, unit_weight, grid=grid8)
        assert r2.statistic == pytest.approx(2.0 * r1.statistic, rel=1e-12)


class TestHinfBlocks:
    """hinf_criterion sweeps the grid in blocks of _NODE_BLOCK nodes; neither
    the block size nor the batches of image gaps it hands to the weight's
    tail may move a bit of the report."""

    U = Polynomial([0.4, -1.1 + 0.3j, 0.7j, 0.25])

    @pytest.mark.parametrize("phi", [Scale(0.63), Moebius(0.3 - 0.2j)])
    def test_report_independent_of_block_size(self, monkeypatch, phi):
        grid = QuadratureGrid(9)
        w = RadialWeight.power(1.0)
        op = OperatorSpec(phi, self.U, 1)
        blobs = []
        for block in (1 << 10, measures._NODE_BLOCK, grid.node_count):
            monkeypatch.setattr(measures, "_NODE_BLOCK", block)
            blobs.append(json.dumps(hinf_criterion(op, 2.0, w, grid=grid).to_json()))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_ties_keep_the_first_node(self, monkeypatch):
        """A constant image makes every node tie: the report's one sample is
        node 0 at every block size, as over the whole grid at once."""

        class Constant(SelfMap):
            def __call__(self, z):
                return np.full(np.shape(z), 0.5 + 0.0j)

            def image_radius(self, s):
                return 0.5

        grid = QuadratureGrid(9)  # eight default blocks
        op = OperatorSpec(Constant(), ONE, 1)
        for block in (1 << 10, measures._NODE_BLOCK, grid.node_count):
            monkeypatch.setattr(measures, "_NODE_BLOCK", block)
            report = hinf_criterion(op, 2.0, RadialWeight.power(1.0), grid=grid)
            assert [z for z, _ in report.samples] == [next(grid.blocks())[0][0]], block

    def test_temporaries_stay_in_blocks(self):
        """At grid 11 (524 k nodes) the sweep's per-node temporaries would
        take about 59 MB; in blocks the call stays under 16 MB and builds no
        whole-grid node array."""
        w = RadialWeight.power(1.0)
        op = OperatorSpec(Scale(0.6), self.U, 1)
        grid = QuadratureGrid(11)
        hinf_criterion(op, 2.0, w, grid=QuadratureGrid(4))  # first-call allocations stay out
        tracemalloc.start()
        try:
            hinf_criterion(op, 2.0, w, grid=grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "nodes" not in vars(grid)
        assert peak < 16e6, peak


class TestSupportBlocks:
    """berezin_criterion reads a density measure's support in the grid's
    blocks of _NODE_BLOCK nodes, op_pushforward_criterion its pushforward in
    the same blocks, and no whole-grid array is built.  The block size moves
    no bit of a Berezin report; it moves the pushforward criterion's
    pseudo-disc sums by ulps, since each atom's mass is added within its
    own block's sum."""

    U = Polynomial([0.4, -1.1 + 0.3j, 0.7j, 0.25])
    OP = OperatorSpec(Moebius(0.3 - 0.2j), U, 1)

    def test_berezin_report_independent_of_block_size(self, monkeypatch):
        grid = QuadratureGrid(9)
        w = RadialWeight.power(1.0)
        nu = RadialDensityMeasure.from_weight(RadialWeight.power(4.5), grid)
        blobs = []
        for block in (1 << 10, measures._NODE_BLOCK, grid.node_count):
            monkeypatch.setattr(measures, "_NODE_BLOCK", block)
            report = berezin_criterion(self.OP, 2.0, 2.0, w, nu, 3.0, grid=grid)
            blobs.append(json.dumps(report.to_json()))
        assert blobs[0] == blobs[1] == blobs[2]
        # and the values are the kernel sums over the whole support:
        # gap^(gamma q) int |u|^q |1 - conj(a) phi|^(-(gamma + n) q) d(nu) / wS(a)
        pts_nu, masses = (np.concatenate(a) for a in zip(*nu.support_blocks()))
        uq = np.abs(self.U(pts_nu)) ** 2 * masses
        phin = self.OP.phi(pts_nu)
        for re, im, value in report.to_json()["samples"]:
            a = complex(re, im)
            want = (np.abs(1.0 - a.conjugate() * phin) ** -8.0 @ uq
                    * (1.0 - abs(a)) ** 6.0 / w.carleson_mass_at_gap(1.0 - abs(a)))
            assert value == pytest.approx(want, rel=1e-10)

    @staticmethod
    def traced_peak(call, grid):
        """Peak traced allocation of call(grid) at grid 11, after the same
        call on a small grid keeps first-call allocations out."""
        call(QuadratureGrid(4))
        tracemalloc.start()
        try:
            call(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_berezin_builds_no_whole_support(self):
        """At grid 11 the whole support (nodes, masses, images, |u|^q masses)
        would take about 34 MB; in blocks the call stays under 10 MB."""
        w = RadialWeight.power(1.0)
        target = RadialWeight.power(4.5)
        grid = QuadratureGrid(11)
        peak = self.traced_peak(lambda g: berezin_criterion(
            self.OP, 2.0, 2.0, w, RadialDensityMeasure.from_weight(target, g), 3.0,
            grid=g), grid)
        assert "nodes" not in vars(grid)
        assert peak < 10e6, peak

    def pushforward_criterion_peak(self, level):
        """Traced peak of op_pushforward_criterion on a power density at the
        given grid level, evaluated to that level."""
        w = RadialWeight.power(1.0)
        op = OperatorSpec(Moebius(0.3 - 0.2j), self.U, 0)
        grid = QuadratureGrid(level)
        peak = self.traced_peak(lambda g: op_pushforward_criterion(
            op, 2.0, 1.0, w, RadialDensityMeasure.from_power(3.0, g), level=g.levels), grid)
        assert "nodes" not in vars(grid)
        return peak

    def test_pushforward_criterion_builds_no_grid_nodes(self):
        """The grid-11 pushforward keeps no support-sized array and its
        pseudo-disc sums sort one support block at a time; the grid's 8.4 MB
        of nodes and every whole-support copy stay out, so the call stays
        under 10 MB."""
        peak = self.pushforward_criterion_peak(11)
        assert peak < 10e6, peak

    def test_pushforward_criterion_memory_is_flat(self):
        """From grid 9 (131 k nodes) to grid 12 (1.05 M nodes) the call's peak
        grows by less than 1 MB and stays under 10 MB: no copy of the support
        grows with the grid."""
        small, large = self.pushforward_criterion_peak(9), self.pushforward_criterion_peak(12)
        assert large - small < 1e6 and large < 10e6, (small, large)


class TestVerifyGamma:
    def test_paper_choice_passes(self):
        w = RadialWeight.power(1.0)
        passed, worst = verify_gamma(w, 2.0, 2.0 * (1.0 + 2.0) / 2.0,
                                     grid=QuadratureGrid(12))
        assert passed and np.isfinite(worst)

    def test_below_threshold_fails(self, unit_weight):
        passed, worst = verify_gamma(unit_weight, 2.0, 0.5, grid=QuadratureGrid(12))
        assert not passed

    def test_oversized_gamma_passes(self, unit_weight):
        grid = QuadratureGrid(12)
        passed_ref, worst_ref = verify_gamma(unit_weight, 2.0, 2.0, grid=grid)
        passed_big, worst_big = verify_gamma(unit_weight, 2.0, 25.0, grid=grid)
        assert passed_big
        assert worst_big >= 0.5 * worst_ref


class TestOperatorNormLowerBound:
    def test_identity_operator(self, unit_weight, grid8):
        op = OperatorSpec(Identity(), ONE, 0)
        family = [ONE, Polynomial([0, 1.0])]
        nu = RadialDensityMeasure.from_weight(unit_weight, grid8)
        got = operator_norm_lower_bound(op, 2.0, 2.0, unit_weight, nu, family, grid8)
        assert got >= 1.0 - 1e-3

    def test_zero_symbol(self, unit_weight, grid8):
        op = OperatorSpec(Identity(), Polynomial([0.0]), 0)
        nu = RadialDensityMeasure.from_weight(unit_weight, grid8)
        got = operator_norm_lower_bound(op, 2.0, 2.0, unit_weight, nu, [ONE], grid8)
        assert got == 0.0

    def test_divergent_case_exceeds_caps(self, unit_weight, grid8):
        # divergent criterion: probes concentrated near the boundary push the
        # lower bound past any fixed cap
        op = OperatorSpec(Identity(), ONE, 0)
        bounds = []
        for a in (0.9, 0.99, 0.999):
            f = probe_function(a, 3.0, 2.0, unit_weight)
            bounds.append(operator_norm_lower_bound(
                op, 2.0, 2.0, unit_weight, unit_weight, [f], grid8,
                target="hinf"))
        assert bounds[0] < bounds[1] < bounds[2]
        assert bounds[2] > 100.0

    def test_bounded_case_stays_bounded(self, rng, unit_weight, grid8):
        # bounded criterion: the lower bound over a 100-function random
        # family never outruns the criterion supremum
        op = OperatorSpec(Scale(0.5), ONE, 0)
        report = hinf_criterion(op, 2.0, unit_weight, grid=grid8)
        assert report.verdict == "bounded-consistent"
        family = []
        for _ in range(96):
            deg = int(rng.integers(1, 16))
            family.append(Polynomial(rng.normal(size=deg + 1)
                                     + 1j * rng.normal(size=deg + 1)))
        for a in (0.3, 0.9, 0.99, 0.999):
            family.append(probe_function(a, 3.0, 2.0, unit_weight))
        lb = operator_norm_lower_bound(op, 2.0, 2.0, unit_weight, None,
                                       family, grid8, target="hinf")
        assert lb <= 1.5 * report.statistic


class TestNormEquivalence:
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_power_weight_bracket(self, rng, grid8, alpha):
        w = RadialWeight.power(alpha)
        polys = [Polynomial(rng.normal(size=int(rng.integers(2, 12))) * 1j
                            + rng.normal(size=1)) for _ in range(10)]
        ratios = norm_equivalence_ratios(polys, 2.0, w, grid8)
        # for power weights the tail-density weight is w/(alpha+1) exactly
        assert np.allclose(ratios, (alpha + 1.0) ** -0.5, rtol=1e-6)
