import json
import math
import os
import sys
import tracemalloc
import weakref
from collections import Counter

import mpmath
import numpy as np
import pytest

from meanlab import chains, means
from meanlab.chains import (
    GridSpec,
    InequalityChain,
    bracket_best_exponent,
    builtin_suite,
    conjecture_scan,
    refined_ratios,
    sharpness_probe,
    verify_chain,
)
from meanlab.errors import ConfigError, DomainError, EvalError, NonMonotonePredicateError
from meanlab.expressions import evaluate

import oracles
from references import get_chain, plain_bracket

# grids whose ratios, sliced anywhere, must be np.geomspace's bit for bit
SIX_GRIDS = [(1e-15, 1e300), (1e-12, 1e15), (1e-6, 1e8), (0.1, 1e8), (1e-12, 1.0001), (1e-3, 1e3)]

EXPECTED_IDS = {
    "T11-1", "T11-2", "T11-3", "T11-4",
    "T12-1", "T12-2", "T12-3", "T12-4", "T12-5",
    "E11", "E12", "T21a", "T21b",
    "R-ine1502a", "R-ine1502b",
    "T22", "R-2402c", "T23", "R-2402e", "R-P2", "T24", "R-2402g",
    "T25a", "T25b", "T26", "C-AGe",
    "C27-1", "C27-2", "C-46-1", "C-46-2", "C-2202a",
    "R-ineq6", "R-0209f", "C-coro89", "R-seiffert", "R-halfpi",
}

#: grid on which every link's true margin exceeds the strictness guard; the
#: most degenerate link ((A+G)/2 vs (P+X)/2, tangency of order t^6) needs
#: ratios above ~1.06 to clear 1e-13
RESOLVABLE = GridSpec(r_min=0.1, r_max=1e8, n=4000)


class TestRegistry:
    def test_id_set_exact(self):
        assert {c.id for c in builtin_suite()} == EXPECTED_IDS

    def test_size(self):
        assert len(builtin_suite()) >= 34

    def test_get_chain(self):
        assert get_chain("T24").id == "T24"
        with pytest.raises(DomainError):
            get_chain("T99")

    def test_every_chain_ascending_at_4_1(self):
        for chain in builtin_suite():
            vals = [float(evaluate(m, 4.0, 1.0)) for m in chain.members]
            assert all(lo < hi for lo, hi in zip(vals, vals[1:])), chain.id

    def test_members_collapse_near_diagonal(self):
        # chains whose members are all mean-valued converge to a common
        # value as a -> b; chains carrying absolute constants (the /e and
        # 2/pi scalings) do not
        non_collapsing = {
            "T12-1", "T12-5", "T21b", "T22", "C-AGe",
            "R-seiffert", "C-coro89", "R-halfpi",
        }
        for chain in builtin_suite():
            vals = np.array([float(evaluate(m, 1.0 + 1e-9, 1.0)) for m in chain.members])
            assert np.all(np.isfinite(vals)), chain.id
            if chain.id in non_collapsing:
                continue
            spread = np.max(vals) - np.min(vals)
            assert spread <= 1e-8 * np.max(np.abs(vals)), chain.id

    def test_citations_present(self):
        assert all(c.citation for c in builtin_suite())

    def test_chain_needs_two_members(self):
        with pytest.raises(ConfigError):
            InequalityChain("tiny", ("A",), "nothing to compare")


class TestVerifyChain:
    def test_all_chains_pass_on_resolvable_grid(self):
        for chain in builtin_suite():
            report = verify_chain(chain, RESOLVABLE)
            assert report.passed, (chain.id, report.min_margin, report.error)
            assert report.min_margin > 1e-13

    def test_t11_1_passes(self):
        report = verify_chain(get_chain("T11-1"), RESOLVABLE)
        assert report.passed and len(report.links) == 4

    def test_all_margins_positive_at_4_1(self):
        for chain in builtin_suite():
            vals = [float(evaluate(m, 4.0, 1.0)) for m in chain.members]
            margins = [
                (hi - lo) / max(abs(hi), abs(lo)) for lo, hi in zip(vals, vals[1:])
            ]
            assert all(m > 0 for m in margins), (chain.id, margins)

    def test_tightest_links_against_oracle(self):
        # spot-check the narrowest links at (4, 1) with the high-precision
        # oracle rather than the package's own arithmetic
        m = oracles.mp_means(4, 1)
        assert oracles.X_4_1 < oracles.LOG_MEAN_X_A_4_1 < oracles.P_4_1
        assert float(m["A"] + m["G"] - m["P"]) < oracles.X_4_1
        assert float((m["A"] + m["G"]) / 2) < float((m["P"] + m["X"]) / 2)
        assert float(m["I"] / m["L"]) < float(m["L"] / m["G"])
        assert float(m["L"] / m["G"]) < float(1 + m["G"] / m["H"] - m["I"] / m["G"])
        # and the package margins agree with oracle margins where tight
        got = float(evaluate(get_chain("T12-4").members[3], 4.0, 1.0))
        assert got == pytest.approx(oracles.LOG_MEAN_X_A_4_1, rel=1e-13)

    def test_known_false_chain_fails_everywhere(self):
        false_chain = InequalityChain("false-XG", ("X", "G"), "deliberately reversed")
        grid = GridSpec(r_min=1e-3, r_max=1e8, n=500)
        r = grid.ratios()
        x = np.asarray(evaluate(false_chain.members[0], r, 1.0))
        g = np.asarray(evaluate(false_chain.members[1], r, 1.0))
        margins = (g - x) / np.maximum(np.abs(g), np.abs(x))
        assert np.all(margins < -1e-13)  # violated at every grid point
        report = verify_chain(false_chain, grid)
        assert not report.passed

    def test_near_diagonal_margins_are_noise_floor_not_catastrophe(self):
        # the stable difference kernels keep T12-3 and T12-5 from reporting
        # spurious violations of size ~1e-3 at a = 1 + 1e-6
        grid = GridSpec()  # default, reaches 1 + 1e-6
        for cid in ("T12-3", "T12-5"):
            report = verify_chain(get_chain(cid), grid)
            assert report.min_margin > -1e-13, (cid, report.min_margin)

    def test_no_genuine_violation_on_default_grid(self):
        for chain in builtin_suite():
            report = verify_chain(chain, GridSpec(n=2000))
            assert report.min_margin > -1e-12, (chain.id, report.min_margin)

    def test_scale_invariance_of_verdicts(self):
        g1 = GridSpec(r_min=0.1, r_max=1e6, n=500, b=1.0)
        g2 = GridSpec(r_min=0.1, r_max=1e6, n=500, b=1000.0)
        for cid in ("T11-1", "T12-4", "T24", "C-coro89"):
            r1 = verify_chain(get_chain(cid), g1)
            r2 = verify_chain(get_chain(cid), g2)
            assert r1.passed == r2.passed
            for l1, l2 in zip(r1.links, r2.links):
                assert l1.argmin_ratio == pytest.approx(l2.argmin_ratio, rel=1e-9)

    def test_eval_error_marks_chain_failed(self):
        broken = InequalityChain("broken", ("log(G - A)", "A"), "negative log argument")
        report = verify_chain(broken, GridSpec(r_min=0.5, r_max=10.0, n=10))
        assert not report.passed
        assert report.error is not None

    def test_a_nested_mean_of_an_overflowing_operand_is_an_eval_error(self):
        # A*1e300 is +inf from a = 1e8: the nested mean's guard reports it
        # as an EvalError at the first such pair, in the chain's report
        chain = InequalityChain("u", ("G", "L(A*1e300, G)"), "user")
        [report] = chains.verify_chains([chain], GridSpec(r_max=1e10, n=100))
        assert not report.passed and not report.links
        assert report.error == (
            "invalid operand in subexpression 'L((A * 1e+300), G)'"
            " at pair (385352913.86537427, 1.0)"
        )

    def test_eval_error_is_the_whole_grids_first(self, monkeypatch):
        # the error is the one evaluating the members one after another over
        # the whole grid raises, however the grid is chunked
        grid = GridSpec(r_min=1e-3, r_max=1e3, n=5000)
        cases = [
            # the sqrt fails from a/b ~ 13.9 on and the log only at a/b < ~1.33:
            # over the whole grid the sqrt fails first, but the early chunks
            # fail only in the log
            ("sqrt(2 - A/G) + log(A/G - 1.01)", "A"),
            # the second member fails from the first point on, the first only
            # from a/b ~ 13.9 on, yet the first member's error is the grid's
            ("sqrt(2 - A/G) + A", "log(A/G - 1.01) + 2*A"),
            # every chunk below a/b ~ 13.9 fails in the same node, each at its
            # own first point: the earliest chunk's is the grid's
            ("log(A - 2*G)", "A"),
        ]
        expected = []
        for texts in cases:
            chain = InequalityChain("broken", texts, "test")
            expected.append(_whole_grid_error(chain.members, grid.ratios() * grid.b, grid.b))
        assert all(e.startswith("invalid operand in subexpression 'sqrt(") for e in expected[:2])
        assert f"at pair ({float(grid.ratios_slice(0, 1)[0] * grid.b)!r}, " in expected[2]
        # on the refined grid to a/b = 1e304 two T26 probes overflow in a power
        probe_grid = GridSpec(r_max=1e300, n=2000)
        refined = refined_ratios(probe_grid) * probe_grid.b
        probe_errors = {}
        for key, tpl in chains._TEMPLATES.items():
            members = tpl.build(tpl.nominal + tpl.tighten_sign * 1e-3).members
            probe_errors[key] = _whole_grid_error(members, refined, probe_grid.b)
        assert sum(error is not None for error in probe_errors.values()) == 2
        for chunk_points, workers in ((1 << 16, 1), (97, 1), (7, 1), (97, 4)):
            monkeypatch.setattr(chains, "CHUNK_POINTS", chunk_points)
            monkeypatch.setattr(chains, "_worker_count", lambda chunks: min(chunks, workers))
            for texts, error in zip(cases, expected):
                assert verify_chain(InequalityChain("broken", texts, "test"), grid).error == error
            probes = chains.sharpness_probes(probe_grid)
            assert {(o.chain_id, o.constant): o.error for o in probes} == probe_errors


def _whole_grid_minima(member_lists, ratios, b):
    """Per member list, (min margin, ratio there) per link from evaluate over
    all of the pairs (ratios*b, b) and np.argmin of _rel_margins, or the
    message of the EvalError evaluating the list raises."""
    a = ratios * b
    out = []
    for members in member_lists:
        error = _whole_grid_error(members, a, b)
        if error is not None:
            out.append(error)
            continue
        values = [np.asarray(evaluate(m, a, b)) for m in members]
        links = []
        for lhs, rhs in zip(values, values[1:]):
            margins = chains._rel_margins(lhs, rhs)
            j = int(np.argmin(margins))
            links.append((float(margins[j]), float(ratios[j])))
        out.append(links)
    return out


def _whole_grid_error(members, a, b):
    """The message of the EvalError evaluating members one after another over
    the pairs (a, b) raises, or None."""
    try:
        for member in members:
            evaluate(member, a, b)
    except EvalError as exc:
        return str(exc)
    return None


class TestChunkedScan:
    def test_first_min_matches_argmin_over_random_chunkings(self):
        rng = np.random.default_rng(5)
        cases = [
            rng.integers(0, 4, 50).astype(float),  # many ties
            np.zeros(50),  # all equal
            np.where(rng.random(50) < 0.1, np.nan, rng.integers(0, 4, 50).astype(float)),
            np.full(50, np.nan),
            np.r_[np.ones(20), -0.0, 0.0, np.ones(28)],
        ]
        for margins in cases:
            j = int(np.argmin(margins))
            for _ in range(50):
                cuts = np.sort(rng.choice(np.arange(1, margins.size), rng.integers(0, 8), False))
                bounds = [0, *cuts.tolist(), margins.size]
                parts = []
                for lo, hi in zip(bounds, bounds[1:]):
                    k = int(np.argmin(margins[lo:hi]))
                    parts.append((float(margins[lo + k]), lo + k))
                got, index = chains._first_min(parts)
                assert index == j, (margins, bounds)
                assert got == margins[j] or (math.isnan(got) and math.isnan(margins[j]))

    @pytest.mark.parametrize(
        "grid, chunkings",
        [
            (GridSpec(n=2000), (7, 97, 65536)),
            (GridSpec(r_min=1e-12, n=2000), (7, 97, 65536)),  # the near points interleave
            (GridSpec(r_max=1e300, n=2000), (7, 97, 65536)),  # chains and probes raise
            # 54 968 ratios repeat the one before; 7- or 97-point chunks
            # would take about 75 s or 5 s a run on this grid
            (GridSpec(r_min=1e-15, r_max=1.00000000001, n=100_000), (4999, 65536)),
        ],
    )
    def test_one_stage_equals_the_whole_grid_reference(self, monkeypatch, grid, chunkings):
        # chain links over the grid and probe links over the sorted, deduplicated
        # refined grid, each from one evaluation of the whole of it: every
        # link's margin and ratio, and every report, outcome and error text
        suite = builtin_suite()
        guard = chains.DEFAULT_MARGIN_GUARD
        templates = list(chains._TEMPLATES.values())
        tightened = [tpl.build(tpl.nominal + tpl.tighten_sign * 1e-3).members for tpl in templates]
        ref_chains = _whole_grid_minima([c.members for c in suite], grid.ratios(), grid.b)
        ref_probes = _whole_grid_minima(tightened, refined_ratios(grid), grid.b)
        expected_chains = []
        for chain, links in zip(suite, ref_chains):
            if isinstance(links, str):
                expected_chains.append(
                    chains.ChainReport(chain.id, (), False, grid.describe(), guard, links)
                )
                continue
            texts = chain.member_texts
            reports = tuple(
                chains.LinkReport(lhs, rhs, m, r) for lhs, rhs, (m, r) in zip(texts, texts[1:], links)
            )
            passed = all(m > guard for m, _ in links)
            expected_chains.append(chains.ChainReport(chain.id, reports, passed, grid.describe(), guard))
        expected_probes = []
        for tpl, links in zip(templates, ref_probes):
            head = (tpl.chain_id, tpl.constant, tpl.direction, 1e-3)
            if isinstance(links, str):
                expected_probes.append(chains.ProbeOutcome(*head, False, None, None, links))
                continue
            worst, ratio = min(((m, r) for m, r in links if not math.isnan(m)), key=lambda p: p[0])
            violated = worst < -guard
            pair = (ratio * grid.b, grid.b) if violated else None
            expected_probes.append(chains.ProbeOutcome(*head, violated, pair, worst))
        if grid.r_max == 1e300:
            assert any(o.error for o in expected_probes) and any(r.error for r in expected_chains)

        def records(minima):
            return [
                str(links) if isinstance(links, EvalError) else [(m, r) for m, r, _ in links]
                for links in minima
            ]

        # json keeps -0.0 apart from 0.0 and writes NaN, so equal texts are equal bits
        expected = json.dumps(
            [ref_chains, ref_probes, [r.as_dict() for r in expected_chains],
             [o.as_dict() for o in expected_probes]]
        )
        stage = chains._grid_link_minima
        seen = []
        monkeypatch.setattr(chains, "_grid_link_minima", lambda *args: seen.append(stage(*args)) or seen[-1])
        # 7-point chunks cost about 10 ms each, so they run with 4 workers only
        runs = [(c, w) for c in chunkings for w in (1, 4) if c > 7 or w > 1]
        for chunk_points, workers in runs:
            monkeypatch.setattr(chains, "CHUNK_POINTS", chunk_points)
            monkeypatch.setattr(chains, "_worker_count", lambda chunks: min(chunks, workers))
            reports, probes = chains.verify_and_probe(suite, grid)
            got_chains, got_probes = seen.pop()
            got = json.dumps(
                [records(got_chains), records(got_probes), [r.as_dict() for r in reports],
                 [o.as_dict() for o in probes]]
            )
            assert got == expected, (chunk_points, workers)

    @pytest.mark.parametrize("r_min", [1e-6, 1e-15])
    def test_refined_ties_go_to_the_least_ratio(self, monkeypatch, r_min):
        # A < 2*A has the margin 0.5 at every point: the refined grid's first
        # argmin is its least ratio, an extra point at r_min = 1e-6 and a
        # grid ratio at 1e-15, below the extra points
        lists = [tuple(chains.parse_expr(t) for t in texts) for texts in (("A", "2*A"), ("G", "A"))]
        grid = GridSpec(r_min=r_min, n=2000)
        expected = _whole_grid_minima(lists, grid.ratios(), grid.b), _whole_grid_minima(
            lists, refined_ratios(grid), grid.b
        )
        first = refined_ratios(grid)[0]
        assert expected[1][0] == [(0.5, first)]
        assert (first == grid.ratios()[0]) == (r_min < 1e-12)
        for chunk_points in (7, 97, 65536):
            for workers in (1, 4):
                monkeypatch.setattr(chains, "CHUNK_POINTS", chunk_points)
                monkeypatch.setattr(chains, "_worker_count", lambda chunks: min(chunks, workers))
                plain, refined = chains._grid_link_minima(lists, grid, lists)
                got = [[[(m, r) for m, r, _ in links] for links in side] for side in (plain, refined)]
                assert tuple(got) == expected, (chunk_points, workers)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="Linux only")
    def test_one_worker_per_core_and_none_idle(self):
        assert chains._worker_count(1) == 1
        assert chains._worker_count(1 << 20) == len(os.sched_getaffinity(0))

    def test_more_threads_than_cores_match_one_chunk(self, monkeypatch):
        # the chunks share only read-only inputs and numpy's lazily built
        # series tables; switch threads often to give a race room to show
        grid = GridSpec(r_min=1e-12, r_max=1.0001, n=1000)
        suite = builtin_suite()
        expected = chains.verify_chains(suite, grid), chains.sharpness_probes(grid)
        monkeypatch.setattr(chains, "CHUNK_POINTS", 64)
        monkeypatch.setattr(chains, "_worker_count", lambda chunks: min(chunks, 8))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = chains.verify_chains(suite, grid), chains.sharpness_probes(grid)
        finally:
            sys.setswitchinterval(interval)
        assert got == expected

    def test_rel_margins_match_the_masked_quotient_bitwise(self):
        rng = np.random.default_rng(6)
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.0]
        lhs = np.r_[rng.standard_normal(200), np.repeat(special, len(special))]
        rhs = np.r_[rng.standard_normal(200), np.tile(special, len(special))]
        # both sides known positive: the denominator is max(lhs, rhs)
        positive = [np.inf, 5e-324, 2.2e-308, 1e-300, 1.0, 1.7e308]
        plhs = np.r_[rng.random(200) + 1e-3, np.repeat(positive, len(positive))]
        prhs = np.r_[rng.random(200) + 1e-3, np.tile(positive, len(positive))]
        for lhs, rhs in ((lhs, rhs), (plhs, prhs)):
            denom = np.maximum(np.abs(lhs), np.abs(rhs))
            with np.errstate(divide="ignore", invalid="ignore"):
                expected = np.where(denom > 0.0, (rhs - lhs) / np.where(denom > 0.0, denom, 1.0), 0.0)
            got = chains._rel_margins(lhs, rhs)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_link_minimum_is_the_margins_first_argmin_bitwise(self):
        # the scan by ratio against _rel_margins + argmin, index and margin
        rng = np.random.default_rng(8)
        eps = np.finfo(float).eps
        n = 400
        l = np.exp(rng.uniform(-50.0, 50.0, n))
        cases = [
            (l, l * np.exp(rng.normal(0.0, 0.1, n))),  # random
            (l, l.copy()),  # a flat run: margin 0 everywhere
            (np.full(n, 3.0), 3.0 * (1.0 + eps * rng.integers(-3, 4, n))),  # ties one ulp apart
            (l, l * (1.0 + eps * rng.integers(0, 3, n))),
            (l, l * 10.0 ** rng.uniform(-20.0, -17.0, n)),  # margins tied at -1
            (l, l * 10.0 ** rng.uniform(17.0, 20.0, n)),  # margins tied near 1
            (5e-324 * rng.integers(1, 9, n), 5e-324 * rng.integers(1, 9, n)),  # subnormal
            (np.where(rng.random(n) < 0.5, 1.7e308, 5e-324), np.full(n, 1.0)),  # q = inf
        ]
        # sides a few ulp apart around a quotient of 1, 3/2, 1e5 or 1e-15,
        # many of them tying
        for scale, factor in ((1.0, 1.0), (2.0, 1.0), (1 / 3, 1.0), (2.0, 1.5), (1.0, 1e5), (3.0, 1e-15)):
            grid = scale * (1.0 + eps * np.arange(-4, 5))
            for _ in range(200):
                cases.append((rng.choice(grid, 12), factor * rng.choice(grid, 12)))
        # a side that is 0, negative, inf or NaN somewhere: margins at every point
        for special in (0.0, -0.0, -1.0, np.inf, np.nan):
            for side in (0, 1):
                pair = [l.copy(), l * np.exp(rng.normal(0.0, 0.1, n))]
                pair[side][rng.choice(n, 3, replace=False)] = special
                cases.append(tuple(pair))
        for lhs, rhs in cases:
            positive = lhs.min() > 0.0 and rhs.min() > 0.0
            finite = positive and max(lhs.max(), rhs.max()) < math.inf
            margins = chains._rel_margins(lhs, rhs)
            j = int(np.argmin(margins))
            got = chains._link_minimum(lhs, rhs, finite)
            assert got[0] == j, (lhs, rhs)
            assert np.float64(got[1]).view(np.int64) == margins[j].view(np.int64), (lhs, rhs)

    def test_balanced_chunk_plan(self, monkeypatch):
        # ceil(n / CHUNK_POINTS) chunks, rounded up to a multiple of the
        # workers, all of ceil(n / count) points but the last
        def sizes(n, chunk_points, workers):
            monkeypatch.setattr(chains, "CHUNK_POINTS", chunk_points)
            monkeypatch.setattr(chains, "_worker_count", lambda chunks: min(chunks, workers))
            bounds = list(chains._map_chunks(lambda lo, hi: (lo, hi), n))
            assert [lo for lo, _ in bounds] == [0, *(hi for _, hi in bounds[:-1])]
            assert bounds[-1][1] == n
            return [hi - lo for lo, hi in bounds]

        assert sizes(2000, 300, 1) == [286] * 6 + [284]
        assert sizes(2000, 300, 4) == [250] * 8
        assert sizes(300_000, 1 << 16, 2) == [50_000] * 6
        assert sizes(10_000, 1 << 16, 2) == [10_000]
        assert sizes(5, 2, 2) == [2, 2, 1]

    def test_each_distinct_member_and_link_once_per_chunk(self, monkeypatch):
        # the suite's 36 chains share members and links, and the tightened
        # probe chains share some of theirs; a grid chunk evaluates each
        # distinct member of both once and scans each distinct link once,
        # the chunk of the refined grid's extra points those of the probes
        # alone, and each chunk builds one Pair
        suite = builtin_suite()
        tightened = [
            tpl.build(tpl.nominal + tpl.tighten_sign * chains.PROBE_EPSILON).members
            for tpl in chains._TEMPLATES.values()
        ]
        evaluated, scanned, paired, current = [], [], [], {}

        class CountingContext(chains.GridContext):
            def __init__(self, a, b, **kwargs):
                super().__init__(a, b, **kwargs)
                evaluated.append(Counter())
                scanned.append(Counter())

            def evaluate(self, expr):
                out = super().evaluate(expr)
                evaluated[-1][expr] += 1
                current[id(out)] = expr
                return out

        class CountingPair(chains.Pair):
            def __init__(self, a, b, **kwargs):
                if not np.ndim(b):  # a context's pair, not a nested mean's
                    paired.append(len(evaluated) - 1)
                super().__init__(a, b, **kwargs)

        original = chains._link_minimum

        def counting_scan(lhs, rhs, *args):
            scanned[-1][current[id(lhs)], current[id(rhs)]] += 1
            return original(lhs, rhs, *args)

        def distinct(lists):
            members = {m for ms in lists for m in ms}
            return Counter(members), Counter({link for ms in lists for link in zip(ms, ms[1:])})

        monkeypatch.setattr(chains, "GridContext", CountingContext)
        monkeypatch.setattr(means, "Pair", CountingPair)
        monkeypatch.setattr(chains, "_link_minimum", counting_scan)
        monkeypatch.setattr(chains, "CHUNK_POINTS", 300)
        monkeypatch.setattr(chains, "_worker_count", lambda chunks: 1)  # unlocked counters
        grid = GridSpec(r_min=0.1, n=1000)
        expected = chains.verify_chains(suite, grid)
        chain_lists = [c.members for c in suite]
        assert len(evaluated) == 4
        for members_seen, links_seen in zip(evaluated, scanned):
            assert (members_seen, links_seen) == distinct(chain_lists)
        assert sum(len(c.members) for c in suite) > len(distinct(chain_lists)[0])
        assert sum(len(c.members) - 1 for c in suite) > len(distinct(chain_lists)[1])

        del evaluated[:], scanned[:], paired[:]
        both = chains.verify_and_probe(suite, grid)
        assert len(evaluated) == 5  # 4 grid chunks of 250 points, then the extra points
        for members_seen, links_seen in zip(evaluated[:4], scanned):
            assert (members_seen, links_seen) == distinct(chain_lists + tightened)
        assert (evaluated[4], scanned[4]) == distinct(tightened)
        assert paired == list(range(5))
        assert distinct(chain_lists)[0] & distinct(tightened)[0]  # members that both read
        monkeypatch.undo()
        assert chains.verify_chains(suite, grid) == expected
        assert both == (expected, chains.sharpness_probes(grid))


def _peak_bytes(stage) -> int:
    """The tracemalloc peak of a second run of stage (the first fills the
    parse and grid caches)."""
    stage()
    tracemalloc.start()
    try:
        stage()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkMemory:
    # each chunk's arrays are freed as the stage goes: its memory follows the
    # chunk size, not the chunk count or the grid; one worker, so that one
    # chunk is live at a time
    @pytest.fixture(autouse=True)
    def one_worker(self, monkeypatch):
        monkeypatch.setattr(chains, "_worker_count", lambda chunks: 1)

    def test_memory_does_not_grow_with_the_chunks(self, monkeypatch):
        grid = GridSpec(r_min=0.1, n=2000)
        # log(A - 2*G) is undefined below a/b ~ 13.9: the chunks there raise
        bad = InequalityChain("bad", ("log(A - 2*G)", "A"), "fails near a = b")
        stages = (
            lambda: chains.verify_chains(builtin_suite(), grid),
            lambda: chains.sharpness_probes(grid),
            lambda: chains.conjecture_scan(grid),
            lambda: chains.verify_and_probe(builtin_suite(), grid),
            lambda: chains.verify_chains([bad, get_chain("T11-1")], grid),
        )
        peaks = {}
        for chunk_points in (500, 64):  # 4 and 32 chunks a stage
            monkeypatch.setattr(chains, "CHUNK_POINTS", chunk_points)
            for k, stage in enumerate(stages):
                peaks.setdefault(k, []).append(_peak_bytes(stage))
        assert all(many < few for few, many in peaks.values()), peaks

    def test_a_chain_chunk_holds_fewer_than_half_its_members(self):
        # values are dropped as their links are scanned, so the chain stage
        # holds far fewer arrays at once than it has distinct members
        n = 20_000  # one chunk
        members = {m for c in builtin_suite() for m in c.members}
        peak = _peak_bytes(lambda: chains.verify_chains(builtin_suite(), GridSpec(r_min=0.1, n=n)))
        assert peak < len(members) / 2 * 8 * n

    def test_a_failed_evaluation_leaves_no_node_results(self, monkeypatch):
        # a member that raises keeps none of its partial results alive, so a
        # failing grid's chunks hold no more arrays than a passing one's
        results = []
        for name in ("call", "binop"):

            def recorded(ctx, *args, method=getattr(chains.GridContext, name)):
                value = method(ctx, *args)
                if isinstance(value, np.ndarray):
                    results.append(weakref.ref(value))
                return value

            monkeypatch.setattr(chains.GridContext, name, recorded)
        ctx = chains.GridContext(np.geomspace(1.5, 100.0, 50), 1.0)
        kept = ctx.evaluate(chains.parse_expr("A*G + 1"))
        assert results[-1]() is kept
        del results[:]
        try:
            ctx.evaluate(chains.parse_expr("exp(2*A) + log(A*G - 2*G*G)"))
        except EvalError as exc:
            error = exc.with_traceback(None)
        assert "log" in str(error)
        assert len(results) == 6 and all(ref() is None for ref in results)

    def test_a_failing_stage_reads_one_chunk_at_a_time(self, monkeypatch):
        # chains and probes that raise on some chunks are reported from
        # those chunks' errors, so no stage asks for more than a chunk of the
        # grid at once, and its memory does not grow with the grid
        builtin_suite()
        spans = []
        original = GridSpec.ratios_slice

        def ratios_slice(grid, lo, hi):
            spans.append(hi - lo)
            return original(grid, lo, hi)

        monkeypatch.setattr(GridSpec, "ratios_slice", ratios_slice)
        monkeypatch.setattr(chains, "CHUNK_POINTS", 97)
        grid = GridSpec(r_max=1e300, n=2000)
        reports = chains.verify_chains(builtin_suite(), grid)
        probes = chains.sharpness_probes(grid)
        assert any(r.error for r in reports) and any(p.error for p in probes)
        assert spans and max(spans) <= 97

    def test_a_kept_error_holds_no_arrays(self):
        # an EvalError's traceback frames would keep its scan's arrays alive
        # for as long as the error is kept
        chain = InequalityChain("bad", ("log(A - 2*G)", "A"), "fails near a = b")
        grid = GridSpec(r_min=0.1, n=600)
        [error], _ = chains._grid_link_minima([chain.members], grid)
        assert isinstance(error, chains.EvalError)
        assert error.__traceback__ is None


def _refined_by_unique(grid):
    """refined_ratios(grid) as np.unique of the grid's ratios and the extra
    points."""
    near = np.geomspace(1.0 + 1e-12, 1.0 + 1e-6, 100, endpoint=False)
    far = np.geomspace(grid.r_max, grid.r_max * 1e4, 100)
    return np.unique(np.concatenate([near, far, grid.ratios()]))


#: The three stages that read a grid.
_GRID_STAGES = pytest.mark.parametrize(
    "stage",
    [
        lambda grid: bracket_best_exponent("X", "lower", 1e-3, grid),
        lambda grid: chains.verify_and_probe(builtin_suite(), grid),
        conjecture_scan,
    ],
    ids=["bracket", "verify", "conjecture"],
)


class TestGridSpec:
    def test_defaults(self):
        g = GridSpec()
        r = g.ratios()
        assert len(r) == 10_000
        assert r[0] == pytest.approx(1.0 + 1e-6, rel=1e-12)
        assert r[-1] == pytest.approx(1e8, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            GridSpec(n=1)
        with pytest.raises(ConfigError):
            GridSpec(r_min=0.0)
        with pytest.raises(ConfigError):
            GridSpec(r_min=2.0, r_max=1.5)
        with pytest.raises(ConfigError):
            GridSpec(b=-1.0)

    @pytest.mark.parametrize("n", [2.5, 1e4, "100"])
    def test_validation_needs_an_integer_n(self, n):
        # a float n would reach np.arange: 2.5 gives 3 ratios, and the
        # chunked stages raise TypeError
        with pytest.raises(ConfigError, match="integer n"):
            GridSpec(n=n)

    def test_a_numpy_integer_n_is_an_integer(self):
        assert GridSpec(n=np.int64(50)).ratios().size == 50

    def test_refined_ratios_extend_both_ends(self):
        g = GridSpec(n=100)
        r = refined_ratios(g)
        assert r[0] < 1.0 + 1e-11
        assert r[-1] == pytest.approx(1e12, rel=1e-12)
        assert np.all(np.diff(r) > 0)

    @pytest.mark.parametrize(
        "r_min, r_max, n",
        [
            *((r_min, r_max, 3000) for r_min, r_max in SIX_GRIDS),
            (1e-6, 1e8, 10_000),
            (1e-12, 1.0 + 1e-9, 300),  # the far points overlap the near ones
            (1e-15, 1.0 + 3e-15, 50),  # 40 ratios repeat the one before
        ],
    )
    def test_refined_ratios_are_np_unique_of_the_ratios(self, r_min, r_max, n):
        grid = GridSpec(r_min=r_min, r_max=r_max, n=n)
        got, expected = refined_ratios(grid), _refined_by_unique(grid)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_refined_ratios_sort_ratios_out_of_order(self, monkeypatch):
        grid = GridSpec(n=500)
        expected = refined_ratios(grid)
        reversed_ratios = grid.ratios()[::-1].copy()
        monkeypatch.setattr(GridSpec, "ratios_slice", lambda self, lo, hi: reversed_ratios)
        assert np.array_equal(refined_ratios(grid), expected)

    def test_validation_names_non_finite_bounds(self):
        with pytest.raises(ConfigError, match="r_max"):
            GridSpec(r_max=math.inf)
        with pytest.raises(ConfigError, match="r_min"):
            GridSpec(r_min=math.inf)
        with pytest.raises(ConfigError, match="r_min"):
            GridSpec(r_min=math.nan)
        with pytest.raises(ConfigError, match=r"r_max\*1e4"):
            refined_ratios(GridSpec(r_max=1e306))

    @_GRID_STAGES
    def test_a_grid_whose_a_overflows_is_refused(self, stage):
        # its largest a = r_max*b is 1e310: numpy's overflow warning was
        # raised here, under this suite's filter, in place of an error
        with pytest.raises(ConfigError, match=r"r_max\*b; r_max = 1e\+300, b = 10000000000\.0"):
            stage(GridSpec(r_max=1e300, b=1e10, n=50))
        # here only the refined grid's largest a, r_max*1e4*b, overflows
        wide = GridSpec(r_max=1e300, b=1e5, n=50)
        if stage is not conjecture_scan:  # which reads no refined grid
            with pytest.raises(ConfigError, match=r"r_max\*1e4\*b; r_max = 1e\+300, b = 100000\.0"):
                stage(wide)

    @_GRID_STAGES
    def test_a_grid_reaching_dbl_max_runs_without_warnings(self, stage):
        # numpy's 10**log10(stop) rounds past DBL_MAX, then the endpoint is
        # set to stop: at the grid's last ratio (conjecture) or the refined
        # grid's last far point, r_max*1e4 (bracket and verify).  Under this
        # suite's filter an escaping overflow warning raises here.
        chains._extra_ratios.cache_clear()
        chains._refined_pair.cache_clear()
        r_max = 1.7976931348623157e308 if stage is conjecture_scan else 1.7976931348623157e304
        grid = GridSpec(r_max=r_max, n=50)
        stage(grid)
        with np.errstate(over="ignore"):
            expected = np.geomspace(1.0 + grid.r_min, r_max, 50)
        assert np.array_equal(grid.ratios().view(np.int64), expected.view(np.int64))
        if stage is not conjecture_scan:  # which reads no refined grid
            hi = chains._refined_pair(grid).hi
            assert hi[-1] == r_max * 1e4
            assert np.array_equal(hi, refined_ratios(grid))

    # the last grid's log10 endpoints round to one double, so its step is 0
    @pytest.mark.parametrize("r_min, r_max", [*SIX_GRIDS, (1e300, np.nextafter(1e300, np.inf))])
    def test_ratio_slices_are_geomspace_bitwise(self, r_min, r_max):
        n = 70_001
        grid = GridSpec(r_min=r_min, r_max=r_max, n=n)
        expected = np.geomspace(1.0 + r_min, r_max, n).view(np.int64)
        for size in (7, 64, 300, 1000, 50_000, 65_536):
            parts = [grid.ratios_slice(lo, min(lo + size, n)) for lo in range(0, n, size)]
            assert np.array_equal(np.concatenate(parts).view(np.int64), expected), size
        # single points, at both endpoints and at edges of the chunkings above
        for i in (0, 1, 6, 7, 63, 64, 65_535, 65_536, n - 2, n - 1):
            assert grid.ratios_slice(i, i + 1).view(np.int64)[0] == expected[i]
        assert grid.ratios()[0] == 1.0 + r_min and grid.ratios()[-1] == r_max

    @pytest.mark.parametrize("r_min", [1e-6, 0.1, 1e-12])
    def test_refined_chunks_are_the_refined_grid(self, r_min):
        # at r_min = 1e-12 the 100 near points interleave with the grid
        grid = GridSpec(r_min=r_min, n=10_000)
        near = np.geomspace(1.0 + 1e-12, 1.0 + 1e-6, 100, endpoint=False)
        far = np.geomspace(grid.r_max, grid.r_max * 1e4, 100)
        expected = np.unique(np.concatenate([near, grid.ratios(), far]))
        assert np.array_equal(refined_ratios(grid), expected)


class TestSharpness:
    @pytest.mark.parametrize(
        "cid,const,direction",
        [
            ("T21a", "alpha", "tighten_lower"),
            ("T21a", "beta", "tighten_upper"),
            ("T21b", "alpha1", "tighten_lower"),
            ("T21b", "beta1", "tighten_upper"),
            ("T26", "beta2", "tighten_upper"),
            ("E11", "p", "tighten_lower"),
            ("E11", "q", "tighten_upper"),
            ("E12", "alpha", "tighten_lower"),
            ("E12", "beta", "tighten_upper"),
            ("T24", "s", "tighten_lower"),
        ],
    )
    def test_tightening_finds_violation(self, cid, const, direction):
        out = sharpness_probe(cid, const, direction, 1e-3)
        assert out.violated, (cid, const, out.worst_margin)
        assert out.pair is not None

    def test_alpha_violation_near_diagonal_beta_near_infinity(self):
        lo = sharpness_probe("T21a", "alpha", "tighten_lower", 1e-3)
        hi = sharpness_probe("T21a", "beta", "tighten_upper", 1e-3)
        assert lo.pair[0] / lo.pair[1] < 100.0  # alpha binds toward a == b
        assert hi.pair[0] / hi.pair[1] > 1e6  # beta binds at extreme ratios

    def test_k_constant_is_not_sharp(self):
        # the upper constant of T24 is a proof byproduct: tightening it by
        # 1e-3 leaves the chain intact (the true critical exponent is
        # 0.5016276, reached at a/b ~ 4.7e5, far below k - 1e-3 ~ 0.5370)
        out = sharpness_probe("T24", "k", "tighten_upper", 1e-3)
        assert not out.violated
        # tightening it to 1e-3 below the best exponent does break it
        out = sharpness_probe(
            "T24", "k", "tighten_upper", oracles.K_EXPONENT - oracles.K_BEST + 1e-3
        )
        assert out.violated

    def test_alpha2_scaling_sharpness_invisible_at_fixed_b(self):
        # alpha2 = 2 is forced by homogeneity alone; on a fixed-b grid the
        # perturbed bound only drops, so no violation can appear
        out = sharpness_probe("T26", "alpha2", "tighten_lower", 1e-3)
        assert not out.violated

    def test_direction_validation(self):
        with pytest.raises(DomainError):
            sharpness_probe("T21a", "alpha", "tighten_upper", 1e-3)
        with pytest.raises(DomainError):
            sharpness_probe("T21a", "alpha", "sideways", 1e-3)
        with pytest.raises(DomainError):
            sharpness_probe("T11-1", "alpha", "tighten_lower", 1e-3)
        with pytest.raises(DomainError):
            sharpness_probe("T21a", "alpha", "tighten_lower", -1e-3)


class TestProbeTemplates:
    def test_templates_in_sharpness_row_order(self):
        assert list(chains._TEMPLATES) == [
            ("T21a", "alpha"), ("T21a", "beta"), ("T21b", "alpha1"), ("T21b", "beta1"),
            ("T26", "alpha2"), ("T26", "beta2"), ("E11", "p"), ("E11", "q"),
            ("E12", "alpha"), ("E12", "beta"), ("T24", "s"), ("T24", "k"),
        ]

    def test_nominal_build_is_the_registry_chain(self):
        for tpl in chains._TEMPLATES.values():
            built, registered = tpl.build(tpl.nominal), get_chain(tpl.chain_id)
            assert built.member_texts == registered.member_texts, tpl
            assert built.citation == registered.citation, tpl


class TestBracketing:
    def test_x_exponents(self):
        lo = bracket_best_exponent("X", "lower", 1e-4)
        up = bracket_best_exponent("X", "upper", 1e-4)
        assert abs(lo - 1.0 / 3.0) < 1e-3
        assert abs(up - oracles.Q_EXPONENT) < 1e-3

    def test_seiffert_x_average(self):
        lo = bracket_best_exponent("(P+X)/2", "lower", 1e-4)
        up = bracket_best_exponent("(P+X)/2", "upper", 1e-4)
        assert 0.5 - 1e-3 <= lo <= 0.5 + 1e-4
        assert lo < up <= oracles.K_EXPONENT + 1e-3

    @pytest.mark.parametrize(
        "target, lower, upper",
        [
            ("X", 0.33333301544189453, 0.4093780517578125),
            ("P", 0.6055116653442383, 0.6666669845581055),
            ("I", 0.6666660308837891, 0.6931476593017578),
            ("(P+X)/2", 0.5, 0.5016279220581055),
        ],
    )
    def test_frozen_exponents(self, target, lower, upper):
        # each bisection step compares M_s with the target on the refined
        # grid, so any change in a kernel's bits can move these
        assert bracket_best_exponent(target, "lower", 1e-6) == lower
        assert bracket_best_exponent(target, "upper", 1e-6) == upper

    def test_arithmetic_is_order_one(self):
        assert bracket_best_exponent("A", "lower", 1e-3) == pytest.approx(1.0, abs=2e-3)
        assert bracket_best_exponent("A", "upper", 1e-3) == pytest.approx(1.0, abs=2e-3)

    def test_validation(self):
        with pytest.raises(DomainError):
            bracket_best_exponent("X", "middle", 1e-4)
        with pytest.raises(DomainError):
            bracket_best_exponent("X", "lower", -1.0)
        with pytest.raises(DomainError):
            bracket_best_exponent("G - A", "lower", 1e-3)  # not positive

    def test_no_order_below_half_the_harmonic_mean(self):
        # M_-8 tends to 2^(1/8) b > H/2 as a/b grows, so no order lies below H/2
        with pytest.raises(DomainError) as err:
            bracket_best_exponent("H/2", "lower", 1e-3)
        assert str(err.value) == (
            "no integer exponent in (-8.0, 8.0) satisfies the lower relation"
        )

    def test_every_order_above_half_the_harmonic_mean(self):
        with pytest.raises(DomainError) as err:
            bracket_best_exponent("H/2", "upper", 1e-3)
        assert str(err.value) == "the upper relation never breaks inside (-8.0, 8.0)"

    @pytest.mark.parametrize(
        "side, flags",
        [
            # X lies between M_0 and M_1: below it up to order 0, above it from 1
            ("lower", [True] * 9 + [False, False, True] + [False] * 5),
            ("upper", [False] * 9 + [True, True, False] + [True] * 5),
        ],
    )
    def test_non_monotone_predicate(self, monkeypatch, side, flags):
        # shrinking M_3 tenfold, log(M_3/G) - log 10, puts it below X: order 3
        # flips on either side
        real = chains.power_mean_exponent

        def shrunk(y, p):
            e = real(y, p)
            return e - math.log(10.0) if p == 3.0 else e

        monkeypatch.setattr(chains, "power_mean_exponent", shrunk)
        steps = [float(s) for s in range(-8, 9)]
        with pytest.raises(NonMonotonePredicateError) as err:
            bracket_best_exponent("X", side, 1e-3)
        assert str(err.value) == f"predicate not monotone over integer scan {steps}: {flags}"

    @pytest.mark.parametrize(
        "target, side, critical",
        [
            ("X", "lower", 0.33333301544189453),
            ("X", "upper", 0.4093780517578125),
            ("P", "lower", 0.6055116653442383),
            ("P", "upper", 0.6666669845581055),
            ("I", "lower", 0.6666660308837891),
            ("I", "upper", 0.6931476593017578),
            ("(P+X)/2", "lower", 0.5),
            ("(P+X)/2", "upper", 0.5016279220581055),
        ],
    )
    def test_log_space_decisions_are_the_exact_predicate(self, target, side, critical):
        test = chains._OrderTest(chains.parse_expr(target), side == "lower", GridSpec(), 1e-13)
        orders = critical + np.r_[np.linspace(-1e-3, 1e-3, 21), np.linspace(-4e-6, 4e-6, 21)]
        decided = [(test.decide(float(s)), test.exact(float(s))) for s in orders]
        assert all(fast is None or fast == exact for fast, exact in decided)
        # on these grids every order near the critical one is settled in log space
        assert all(fast is not None for fast, _ in decided)

    def test_an_unsettled_order_takes_the_exact_predicate(self, monkeypatch):
        # a guard at the exact least margin of an order that the bisection
        # visits puts a point on its line: that order needs the exact test
        s = 0.34375
        test = chains._OrderTest(chains.parse_expr("X"), True, GridSpec(), 0.0)
        m = chains.power_mean(test.a, test.b, s, pair=test.pair)
        guard = -float(np.min(chains._rel_margins(m, test.tv)))
        assert 0.0 < guard < 0.5
        exact_orders = []
        real = chains._OrderTest.exact

        def recording(self, order):
            exact_orders.append(order)
            return real(self, order)

        monkeypatch.setattr(chains._OrderTest, "exact", recording)
        got = bracket_best_exponent("X", "lower", 1e-3, margin_guard=guard)
        assert exact_orders == [s]
        # every order on the exact path alone gives the same bracket
        unsettled = lambda y, p: np.full(np.shape(y), np.nan)
        monkeypatch.setattr(chains, "power_mean_exponent", unsettled)
        assert bracket_best_exponent("X", "lower", 1e-3, margin_guard=guard) == got
        assert len(exact_orders) > 17

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_a_tolerance_below_the_spacing_of_doubles_ends(self, side):
        # once lo and hi are adjacent doubles their midpoint rounds to one of
        # them: the bracket stops there, on the holding end
        got = bracket_best_exponent("X", side, 1e-300)
        holds = chains._OrderTest(chains.parse_expr("X"), side == "lower", GridSpec(), 1e-13)
        beyond = math.nextafter(got, math.inf if side == "lower" else -math.inf)
        assert holds(got) and not holds(beyond)
        assert got == plain_bracket("X", side, 1e-300)

    @pytest.mark.parametrize("guard", [1e-13, 0.0])
    @pytest.mark.parametrize(
        "grid",
        [
            GridSpec(),
            GridSpec(r_min=1e-3, r_max=1e3, n=500),
            GridSpec(n=300, b=1e-305),
            GridSpec(r_min=1e-9, r_max=1e4, n=3000),
            GridSpec(r_min=0.1, r_max=1e12, n=5000),
            GridSpec(r_max=1e300, n=2000),  # the integer orders take the wide branch
        ],
        ids=["default", "narrow", "tiny-b", "near", "far", "wide"],
    )
    def test_same_brackets_as_the_plain_reference(self, grid, guard):
        # the sign rule, the witness and the failing set skip kernel passes,
        # never change a verdict: the same value, or the same exception and
        # text
        def outcome(bracket, target, side, tolerance):
            try:
                return bracket(target, side, tolerance, grid, guard)
            except Exception as exc:
                return type(exc), str(exc)

        for target in ("X", "P", "I", "(P+X)/2", "A", "G", "H", "Mp[0.25]", "Hp[0.5]",
                       "H/2", "2*A"):
            for side in ("lower", "upper"):
                for tolerance in (1e-6, 1e-9, 1e-15):
                    got = outcome(bracket_best_exponent, target, side, tolerance)
                    expected = outcome(plain_bracket, target, side, tolerance)
                    assert got == expected, (target, side, tolerance)

    @pytest.mark.parametrize(
        "grid",
        [GridSpec(), GridSpec(r_min=1e-9, r_max=1e4, n=3000), GridSpec(r_max=1e296, n=2000)],
        ids=["default", "near", "wide"],
    )
    def test_a_failing_set_decides_as_the_whole_grid(self, monkeypatch, grid):
        # every midpoint decided on a failing set gets the whole grid's
        # verdict and witness; the midpoints of G*(X/G)^3e-9 take the p -> 0
        # branch
        real = chains._OrderTest._decide
        verdicts = Counter()

        def witness(test):
            return None if test.witness is None else (test.witness[0], float(test.witness[1]))

        def checking(test, s, points, narrow=False):
            got = real(test, s, points, narrow)
            if points is not None and points is not test.whole:
                on_set = witness(test)
                assert real(test, s, test.whole) == got, s
                assert witness(test) == on_set, s
                verdicts[got] += 1
            return got

        monkeypatch.setattr(chains._OrderTest, "_decide", checking)
        for target in ("X", "P", "I", "(P+X)/2", "G*(X/G)^0.000000003", "(Mp[3] + Mp[4])/2"):
            for side in ("lower", "upper"):
                bracket_best_exponent(target, side, 1e-15, grid)
        assert verdicts[True] and verdicts[False], verdicts

    def test_the_exponents_error_bound(self):
        # _OrderTest's failing set rests on |computed E_s - log(cosh(s y))/s|
        # <= 13.5 EPS y, at every order and in each branch: p -> 0 below
        # 1e-8, wide where |s y| > 700, for y = log(h) from 5e-13 to 998 log 2
        h = np.geomspace(1.0 + 5e-13, 2.0**998, 300)
        pair = means.Pair(h, 1.0 / h)
        for s in (-8.0, -3.5, -1e-8, -3e-9, 0.0, 3e-9, 1e-8, 1.5e-8, 0.34375, 2.75, 8.0):
            got = means.power_mean_exponent(pair.y, s)
            with mpmath.workdps(100):
                for e, y in zip(got, pair.y):
                    exact = mpmath.log(mpmath.cosh(s * mpmath.mpf(y))) / s if s else 0
                    assert abs(e - exact) <= 13.5 * chains._EPS * y, (s, y)

    @pytest.mark.parametrize("r_max", [1e8, 1e12, 1e296])
    def test_a_subset_pair_gives_the_grids_exponents(self, r_max):
        # a failing set's gathered y gives E_s bit for bit as gathered from
        # the whole grid, in every branch (wide: |s| y > 700 on the 1e296 grid)
        y = chains._refined_pair(GridSpec(r_max=r_max)).y
        rng = np.random.default_rng(int(math.log10(r_max)))
        for s in (-8.0, -3e-9, 1e-8, 0.34375, 3.4375):
            whole = means.power_mean_exponent(y, s)
            for _ in range(20):
                index = np.sort(rng.choice(y.size, rng.integers(1, y.size // 2), replace=False))
                sub = means.power_mean_exponent(y[index], s)
                assert np.array_equal(sub.view(np.int64), whole[index].view(np.int64)), s

    @pytest.mark.parametrize("r_max", [1e8, 1e12, 1e296])
    def test_one_points_y_gives_the_grids_exponent(self, r_max):
        # the witness is decided on its y alone, a numpy scalar: E_s there
        # has the bits it has on the whole grid, in every branch (p -> 0 at
        # -3e-9, wide at 350)
        y = chains._refined_pair(GridSpec(r_max=r_max)).y
        for s in (-3e-9, 1e-8, 0.34375, 350.0):
            whole = means.power_mean_exponent(y, s)
            single = np.array([means.power_mean_exponent(y[j], s) for j in range(y.size)])
            assert np.array_equal(single.view(np.int64), whole.view(np.int64)), s

    def test_searches_on_a_grid_share_one_prepared_pair(self):
        grid = GridSpec(n=500)
        pair = chains._OrderTest(chains.parse_expr("X"), True, grid, 1e-13).pair
        assert chains._OrderTest(chains.parse_expr("P"), False, grid, 1e-13).pair is pair
        arrays = {k: v for k, v in vars(pair).items() if isinstance(v, np.ndarray)}
        assert {"hi", "lo", "eq", "t", "g", "y", "x", "log_g", "xc", "w"} <= arrays.keys()
        before = {k: v.copy() for k, v in arrays.items()}
        for target in ("X", "P", "I", "(P+X)/2", "G", "Mp[3.5]"):
            for side in ("lower", "upper"):
                bracket_best_exponent(target, side, 1e-9, grid)
        for k, v in arrays.items():
            assert not v.flags.writeable, k
            assert np.array_equal(v, before[k]), k
        with pytest.raises(ValueError):
            pair.y[0] = 0.0

    # kernel passes per bracket_sweep case at tolerance 1e-6: on the whole
    # refined grid, and on failing sets
    KERNEL_PASSES = {
        ("X", "lower"): (3, 17), ("X", "upper"): (18, 0),
        ("P", "lower"): (10, 0), ("P", "upper"): (11, 17),
        ("I", "lower"): (4, 16), ("I", "upper"): (20, 0),
        ("(P+X)/2", "lower"): (3, 5), ("(P+X)/2", "upper"): (21, 2),
    }

    def test_kernel_passes_per_bracket(self, monkeypatch):
        real = chains.power_mean_exponent
        calls = []  # (points, order) of each kernel call
        whole = refined_ratios(GridSpec()).size

        def counting(y, p):
            calls.append((np.size(y), p))
            return real(y, p)

        monkeypatch.setattr(chains, "power_mean_exponent", counting)
        for (target, side), passes in self.KERNEL_PASSES.items():
            calls.clear()
            bracket_best_exponent(target, side, 1e-6)
            got = sum(n == whole for n, _ in calls), sum(1 < n < whole for n, _ in calls)
            assert got == passes, (target, side)
            if target == "X":  # the sign rule decides every order <= 0
                assert all(p > 0.0 for _, p in calls), side
            # every order on the whole grid: 17 integer orders, 20 bisections
            calls.clear()
            plain_bracket(target, side, 1e-6)
            assert sum(n == whole for n, _ in calls) == len(calls) == 37, (target, side)


class TestConjecture:
    def test_scan_reports_unresolved(self):
        report = conjecture_scan(GridSpec(n=2000))
        assert report.resolved is False
        assert report.sign in ("positive", "negative", "zero")
        assert math.isfinite(report.min_margin)
        assert report.argmin_ratio >= 1.0
        assert "unresolved" in report.note

    def test_finer_grid_cannot_increase_the_minimum(self):
        coarse = conjecture_scan(GridSpec(n=10))
        fine = conjecture_scan(GridSpec(n=10_000))
        assert fine.min_margin <= coarse.min_margin + 1e-12

    def test_holds_on_resolvable_grid(self):
        report = conjecture_scan(GridSpec(r_min=0.1, r_max=1e8, n=4000))
        assert report.sign == "positive"
        assert report.min_margin > 0

    def test_overflowing_minimum_is_undefined(self):
        # past a/b ~ 1e154 both P*X and I*L overflow, and the minimum is NaN
        report = conjecture_scan(GridSpec(r_max=1e300, n=100))
        assert math.isnan(report.min_margin)
        assert report.sign == "undefined"


class TestNonComparability:
    def test_two_lower_bounds_for_x_trade_places(self):
        # (A+G)/e and (2G+A)/3 are both lower bounds for X but neither
        # dominates the other: which is larger switches with the ratio
        r = np.array([1.5, 1e6])
        lhs = np.asarray(evaluate(chains.parse_expr("(A+G)/e"), r, 1.0))
        rhs = np.asarray(evaluate(chains.parse_expr("(2*G+A)/3"), r, 1.0))
        assert (lhs[0] < rhs[0]) and (lhs[1] > rhs[1])
