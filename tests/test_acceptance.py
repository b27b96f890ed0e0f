"""Acceptance suite: one test per release criterion, at full scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Every tolerance is fixed here, not calibrated.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from srmkit import (
    MATH_FINANCE_SENIOR_BETA,
    Cohort,
    CohortProfile,
    DualDensity,
    GammaTable,
    ReferenceMeasure,
    append_publication,
    calibrate_cohort,
    constructed_minimizer,
    construct_curve,
    dual_value,
    family_for,
    fit_author,
    gamma,
    mix,
    parse_index,
    phi_index,
    robust_dual_srm,
    shift_citations,
    srm_closed_form,
    srm_generic,
    weak_duality_margin,
)
from srmkit.cli import run
from srmkit.cohort import export, ingest
from srmkit.duality import random_simplex_candidates

from conftest import random_curve


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:02d} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num:02d} ({name}): PASS")


X1 = construct_curve([8, 6, 4, 2])
X2 = construct_curve([4, 2, 2, 2, 2])

INTEGER_INDICES = ("c_max", "pubs", "h", "h2", "h_alpha:0.5", "h_alpha:1",
                   "h_alpha:2", "h_alpha:3", "w")
REAL_INDICES = ("h_r", "phi:0.8", "phi:1.62", "phi:2.5")
ALL_POSITIVE = INTEGER_INDICES + ("h_r",)
SUPPORT_RESTRICTED = ("phi:0.8", "phi:1.62", "phi:2.5")


def test_criterion_1_staircase_fixture():
    with criterion(1, "staircase index fixture"):
        w = family_for("w")
        xmix = mix(X1, X2, 0.5)
        assert xmix == construct_curve([6, 4, 3, 2, 1])
        for curve, expected in ((X1, 4.0), (X2, 3.0), (xmix, 5.0)):
            assert srm_closed_form(curve, "w").level == expected
            assert srm_generic(curve, w).level == expected


def test_criterion_2_quasi_convexity_refuted():
    with criterion(2, "quasi-convexity refuted"):
        values = [srm_closed_form(c, "w").level for c in (X1, X2, mix(X1, X2, 0.5))]
        assert values[2] == 5.0
        assert values[2] > max(values[0], values[1])


def test_criterion_3_oracle_equivalence():
    with criterion(3, "generic search equals closed forms, 10k curves"):
        rng = np.random.default_rng(3001)
        families = {label: family_for(label) for label in INTEGER_INDICES + REAL_INDICES}
        specs = {label: parse_index(label) for label in INTEGER_INDICES + REAL_INDICES}
        for _ in range(10_000):
            curve = random_curve(rng, max_p=50, max_c=1000)
            for label in INTEGER_INDICES:
                generic = srm_generic(curve, families[label]).level
                closed = srm_closed_form(curve, specs[label]).level
                assert generic == closed, (label, curve.values.tolist())
            for label in REAL_INDICES:
                generic = srm_generic(curve, families[label]).level
                closed = srm_closed_form(curve, specs[label]).level
                assert abs(generic - closed) <= 1e-9, (label, curve.values.tolist())


def test_criterion_4_monotone_and_quasi_concave():
    with criterion(4, "monotonicity and quasi-concavity, 10k pairs"):
        rng = np.random.default_rng(3002)
        lambdas = (0.0, 0.25, 0.5, 0.75, 1.0)
        ap_specs = [parse_index(label) for label in ALL_POSITIVE]
        sr_specs = [parse_index(label) for label in SUPPORT_RESTRICTED]
        for _ in range(10_000):
            # monotone pair: X_hi dominates X_lo rank by rank
            x_lo = random_curve(rng, max_p=20, max_c=500)
            bumps = rng.integers(0, 500, size=x_lo.p)
            extra = rng.integers(1, 500, size=int(rng.integers(0, 4)))
            x_hi = construct_curve(np.concatenate([x_lo.values + bumps, extra]))
            for spec in ap_specs:
                assert srm_closed_form(x_lo, spec).level <= srm_closed_form(x_hi, spec).level
            # the calibrated index restricts dominance to the author's own
            # support, so its structural laws are stated at fixed breadth
            p = int(rng.integers(1, 21))
            a_vals = rng.integers(1, 500, size=p)
            a = construct_curve(a_vals)
            b = construct_curve(a_vals + rng.integers(0, 500, size=p))
            c = construct_curve(rng.integers(1, 500, size=p))
            for spec in sr_specs:
                assert srm_closed_form(a, spec).level <= srm_closed_form(b, spec).level
            # quasi-concavity over the mixing grid
            y1 = random_curve(rng, max_p=20, max_c=500)
            y2 = random_curve(rng, max_p=20, max_c=500)
            base_ap = {
                spec.label: min(srm_closed_form(y1, spec).level,
                                srm_closed_form(y2, spec).level)
                for spec in ap_specs
            }
            base_sr = {
                spec.label: min(srm_closed_form(a, spec).level,
                                srm_closed_form(c, spec).level)
                for spec in sr_specs
            }
            for lam in lambdas:
                m_ap = mix(y1, y2, lam)
                for spec in ap_specs:
                    assert srm_closed_form(m_ap, spec).level >= base_ap[spec.label] - 1e-9
                m_sr = mix(a, c, lam)
                for spec in sr_specs:
                    assert srm_closed_form(m_sr, spec).level >= base_sr[spec.label] - 1e-9


def test_criterion_5_citation_shift_classes():
    # h_alpha is checked at alpha >= 1: for alpha < 1 the subadditive law
    # genuinely fails (adding m citations can buy m/alpha levels through
    # the height constraint), e.g. [4] shifted by 3 under alpha = 1/2.
    with criterion(5, "citation-shift behavior, 10k draws"):
        rng = np.random.default_rng(3003)
        sub = [(label, family_for(label)) for label in ("h", "h2", "h_alpha:1",
                                                        "h_alpha:2", "h_alpha:3")]
        fam_cmax = family_for("c_max")
        fam_w = family_for("w")
        fam_pubs = family_for("pubs")
        for _ in range(10_000):
            curve = random_curve(rng, max_p=50, max_c=1000)
            m = int(rng.integers(1, 11))
            shifted = shift_citations(curve, m)
            for label, fam in sub:
                assert (
                    srm_generic(shifted, fam).level
                    <= srm_closed_form(curve, label).level + m
                )
            assert (
                srm_generic(shifted, fam_cmax).level
                == srm_closed_form(curve, "c_max").level + m
            )
            assert (
                srm_generic(shifted, fam_w).level
                >= srm_closed_form(curve, "w").level + m
            )
            pubs_after = srm_generic(shifted, fam_pubs).level
            assert math.isinf(pubs_after) or pubs_after >= curve.p + m


def test_criterion_6_new_publication_classes():
    with criterion(6, "new-publication behavior, 10k draws"):
        rng = np.random.default_rng(3004)
        invariant = ("c_max", "h", "h2", "h_alpha:1", "h_alpha:2", "h_alpha:3")
        for _ in range(10_000):
            curve = random_curve(rng, min_p=1, max_p=50, max_c=1000)
            grown = append_publication(curve)
            for label in invariant:
                assert (
                    srm_closed_form(grown, label).level
                    == srm_closed_form(curve, label).level
                )
            dw = srm_closed_form(grown, "w").level - srm_closed_form(curve, "w").level
            assert dw in (0.0, 1.0)
            assert srm_closed_form(grown, "pubs").level == curve.p + 1


def test_criterion_7_weak_duality():
    with criterion(7, "weak duality, 1000 densities x 100 curves per index"):
        measure = ReferenceMeasure(52.0)
        rng = np.random.default_rng(3005)
        # each batch draws rng.dirichlet(np.ones(k), size=1000) from the shared
        # rng: the same draws as 1000 single draws feeding DualDensity.from_weights
        for label in ALL_POSITIVE:
            fam = family_for(label)
            curves = [random_curve(rng, max_p=50, max_c=1000) for _ in range(100)]
            densities = random_simplex_candidates(measure, 1000, rng)
            for curve in curves:
                assert weak_duality_margin(curve, fam, densities, measure) >= -1e-9
        for label in SUPPORT_RESTRICTED:
            # densities live on the dominance domain (0, p]
            fam = family_for(label)
            curves = [random_curve(rng, min_p=1, max_p=50, max_c=1000) for _ in range(100)]
            for curve in curves:
                densities = random_simplex_candidates(measure, 1000, rng, upto=curve.p)
                assert weak_duality_margin(curve, fam, densities, measure) >= -1e-9


def test_criterion_8_strong_duality_at_minimizers():
    with criterion(8, "strong duality at the constructed minimizers"):
        measure = ReferenceMeasure(16.0)
        z_cmax = constructed_minimizer("c_max", X1, 0.0, measure)
        fam = family_for("c_max")
        gap = dual_value(X1, fam, [z_cmax], measure) - 8.0
        assert gap == 0.0
        fam = family_for("pubs")
        for delta in (1.0, 0.1, 0.01):
            z = constructed_minimizer("pubs", X1, delta, measure)
            gap = dual_value(X1, fam, [z], measure) - 4.0
            assert gap == 0.0
        fam = family_for("h")
        gaps = []
        x_after_core = 2.0  # fourth value of the fixture, h = 3
        for delta in (1.0, 0.1, 0.01):
            z = constructed_minimizer("h", X1, delta, measure)
            gap = dual_value(X1, fam, [z], measure) - 3.0
            assert 0.0 <= gap <= delta * x_after_core / 3.0
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2] > 0.0


def _grid_density(rng, extent, away_from_zero=False):
    """Random piecewise density with breakpoints on the 0.1 grid."""
    lo = 10 if away_from_zero else 1
    inner = np.unique(rng.integers(lo, int(extent * 10), size=6)) / 10.0
    bp = np.concatenate([[0.0] if not away_from_zero else [0.0, lo / 10.0], inner,
                         [extent]])
    bp = np.unique(bp)
    heights = rng.uniform(0.0, 1.0, size=len(bp) - 1)
    if away_from_zero:
        heights[0] = 0.0
    mass = float(np.dot(heights, np.diff(bp))) / extent
    return DualDensity(tuple(bp), tuple(heights / mass))


def test_criterion_9_exact_integration():
    with criterion(9, "closed-form integration vs 1e6-cell Riemann sums"):
        extent = 50.0
        measure = ReferenceMeasure(extent)
        rng = np.random.default_rng(3006)
        cells = 1_000_000
        xs = (np.arange(cells) + 0.5) * (extent / cells)
        shapes = ("c_max", "pubs", "h", "h2", "h_alpha:2", "w", "phi:0.8", "phi:1.62")
        for i in range(100):
            label = shapes[i % len(shapes)]
            fam = family_for(label)
            away = fam.shape == "power"
            z = _grid_density(rng, extent, away_from_zero=away)
            q = float(rng.integers(5, 400)) / 10.0
            zv = np.array(z.heights)[
                np.searchsorted(np.array(z.breakpoints), xs, side="left") - 1
            ]
            # reference curve values written out directly, shape by shape
            if fam.shape == "rectangle":
                fv = np.where(xs <= fam.width.value(q), fam.height.value(q), 0.0)
            elif fam.shape == "staircase":
                fv = np.where(xs <= q, q - xs + 1.0, 0.0)
            else:
                fv = q / xs**fam.beta
            oracle = float(np.dot(zv, fv)) / cells
            assert gamma(z, q, fam, measure) == pytest.approx(oracle, abs=1e-6)


def test_criterion_10_calibration_recovery():
    with criterion(10, "calibration recovery"):
        # noiseless power-law cohort
        betas = [1.62] * 20
        curves = [
            construct_curve([(80.0 + 5 * i) / r**b for r in range(1, 19)])
            for i, b in enumerate(betas)
        ]
        profile = calibrate_cohort(Cohort.from_curves([f"a{i}" for i in range(20)], curves))
        assert abs(profile.beta_bar - 1.62) <= 1e-9
        assert profile.cohort_size == 20
        for i in range(profile.cohort_size):
            assert abs(profile.q_hat[i] - (80.0 + 5 * i)) / (80.0 + 5 * i) <= 1e-6
        # integer-rounded record: bias bounded and equal to the
        # independent normal-equations solution
        curve = construct_curve([round(1e4 / r**1.3) for r in range(1, 31)])
        fit = fit_author(curve)
        pts = [(math.log(r), math.log(v)) for r, v in enumerate(curve.values, start=1)]
        n = len(pts)
        sx = sum(x for x, _ in pts)
        sy = sum(y for _, y in pts)
        sxx = sum(x * x for x, _ in pts)
        sxy = sum(x * y for x, y in pts)
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        assert abs(fit.beta_hat - (-slope)) <= 1e-9
        assert abs(fit.beta_hat - 1.3) <= 0.02


def test_criterion_11_calibrated_index_closed_form():
    with criterion(11, "calibrated index closed form"):
        assert abs(phi_index(X1, MATH_FINANCE_SENIOR_BETA).level - 8.0) <= 1e-9
        rng = np.random.default_rng(3007)
        fam = family_for("phi:1.62")
        for _ in range(1000):
            curve = random_curve(rng, max_p=50, max_c=1000)
            closed = phi_index(curve, 1.62).level
            generic = srm_generic(curve, fam).level
            assert abs(closed - generic) <= 1e-9


def test_criterion_12_determinism_and_round_trip(tmp_path):
    with criterion(12, "deterministic runs and export round trips"):
        rng = np.random.default_rng(3008)
        # export -> ingest identity on 100 random cohorts, both formats
        for trial in range(100):
            fmt = "csv" if trial % 2 == 0 else "json"
            records = Cohort.from_curves(
                [f"a{j:02d}" for j in range(12)],
                [random_curve(rng, max_p=30, max_c=1000) for j in range(12)],
            )
            twice = ingest(export(records, fmt), fmt)
            assert twice.ids == records.ids
            assert [twice.curve(k) for k in range(12)] == [records.curve(k) for k in range(12)]
        # byte-identical CLI runs
        cohort = tmp_path / "cohort.csv"
        lines = ["author_id,citations"]
        for j in range(20):
            vals = rng.integers(1, 300, size=int(rng.integers(1, 25)))
            lines.append(f"b{j:02d}," + ";".join(str(int(v)) for v in sorted(vals)[::-1]))
        cohort.write_text("\n".join(lines) + "\n")
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            code = run(["compute", "--input", str(cohort),
                        "--indices", "c_max,pubs,h,h2,h_alpha:2,w,h_r,phi:1.62",
                        "--output", str(out)])
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        dual_a, dual_b = tmp_path / "da.csv", tmp_path / "db.csv"
        for out in (dual_a, dual_b):
            code = run(["dual-check", "--input", str(cohort), "--index", "h",
                        "--deltas", "1,0.1,0.01", "--samples", "40", "--seed", "2026",
                        "--output", str(out)])
            assert code == 0
        assert dual_a.read_bytes() == dual_b.read_bytes()


def test_criterion_13_dual_first_index():
    with criterion(13, "dual-first index from a gamma table, 2000 records"):
        measure = ReferenceMeasure(24.0)
        rng = np.random.default_rng(3009)
        fam = family_for("h")
        densities = {
            f"z{cells}": DualDensity.from_weights(rng.dirichlet(np.ones(cells)), measure.extent)
            for cells in (2, 5, 12, 24)
        }
        base = [random_curve(rng, min_p=1, max_p=20, max_c=40) for _ in range(500)]
        shifted = [shift_citations(x, int(rng.integers(1, 4))) for x in base]
        grown = [append_publication(x) for x in base]
        partners = base[1:] + base[:1]
        lams = rng.choice((0.25, 0.5, 0.75), size=len(base))
        mixed = [mix(x, y, lam) for x, y, lam in zip(base, partners, lams)]
        curves = base + shifted + grown + mixed
        duals = [dual_value(x, fam, list(densities.values()), measure) for x in curves]
        # gamma on a grid from 0 past every dual value the draw reaches
        step = 0.01
        betas = tuple(np.arange(math.ceil(max(duals) / step) + 2) * step)
        table = GammaTable(betas, {
            cid: tuple(gamma(z, b, fam, measure) for b in betas)
            for cid, z in densities.items()
        })
        robust = [robust_dual_srm(x, table, densities, measure) for x in curves]
        for dual, value in zip(duals, robust):
            assert 0.0 <= dual - value <= step
        n = len(base)
        at_base, at_shifted, at_grown, at_mixed = (robust[k * n:(k + 1) * n] for k in range(4))
        for k in range(n):
            assert at_shifted[k] >= at_base[k]
            assert at_grown[k] >= at_base[k]
            assert at_mixed[k] >= min(at_base[k], at_base[(k + 1) % n])
