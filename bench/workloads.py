"""The four benchmark workloads: seeded inputs, ops and per-op checks.

Every workload is a closed loop with one caller.  Its inputs are drawn from
the workload seed into a pool of cycles at set-up; a cycle is a fixed
multiset of ops in a seed-shuffled order, and the timed loop runs whole
cycles, so every run holds the same mix of op kinds and the medians do not
depend on where the deadline falls.  A *unit* is one call into the
program: one op for most workloads, one whole search (many objective
evaluations) for ``search``.  Each unit returns its op latencies, how many
of its ops failed and the rounded outputs that go into the digest.  A
failed check is counted, never raised.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import warnings
from typing import Callable, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOL = 1e-10
# best_defect below this counts as "found" (the acceptance bar of the search).
FOUND = 1e-8
POOL_CYCLES = 32
CATALOG_NAMES = ("calabi_eckmann", "iwasawa3", "iwasawa5", "iwasawa_def", "nakamura", "torus_3")
SIGMAS = ("sigma12", "sigma11b", "sigma12b", "sigma21b", "sigma22b")


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics' names, units and
    bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@dataclasses.dataclass
class Outcome:
    latencies_ms: List[float]
    failed: int
    digest: list


def canon(x):
    """Round outputs to 9 significant digits (noise below 1e-9 reads as 0)
    so that digests compare answers, not last-digit round-off."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, complex):
        return [canon(x.real), canon(x.imag)]
    if isinstance(x, float):
        return 0.0 if abs(x) < 1e-9 else float(f"{x:.9g}")
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    return canon(float(x))


def timed(fn: Callable):
    """``fn()`` and its wall time in ms."""
    t0 = time.perf_counter()
    result = fn()
    return result, (time.perf_counter() - t0) * 1e3


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(a) + abs(b))


class Workload:
    """Base: ``cycle(k)`` gives the units of cycle k, ``setup`` warms up.
    A unit that holds many ops calls ``between_ops`` between them, which
    the timed loop points at its machine-speed probe."""

    name = ""

    @staticmethod
    def between_ops() -> None:
        pass

    def __init__(self, seed: int):
        import numpy as np
        self.np = np
        self.seed = seed
        self.counters: Dict[str, float] = {}

    def rng(self, *key):
        return self.np.random.default_rng([self.seed, *key])

    def pd_matrix(self, rng, n: int):
        """Seed-drawn dense, well-conditioned positive definite matrix."""
        np = self.np
        C = np.eye(n) + 0.25 * (rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
        return float(rng.uniform(0.7, 1.4)) * (C @ C.conj().T)

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, k: int) -> List[Callable[[], Outcome]]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# classify_mix
# ----------------------------------------------------------------------
class ClassifyMix(Workload):
    """One cycle: ``classify`` with the default metric and with a random
    metric on each catalog model, two pair analyses and one triple
    analysis (15 ops).  ``iwasawa_def`` and ``calabi_eckmann`` re-bind
    seed-drawn parameters on every op."""

    name = "classify_mix"

    def __init__(self, seed: int):
        super().__init__(seed)
        from starsplit import catalog
        self.catalog = catalog
        self.models = {}
        for name in CATALOG_NAMES:
            M, g, exp = catalog.get(name)
            self.models[name] = (M, g.H.copy(), exp)
        self.pool = [self._draw(k) for k in range(POOL_CYCLES)]

    def _params(self, rng, name: str) -> Dict[str, complex]:
        def z(r):
            return complex(*(r * rng.uniform(-1.0, 1.0, 2)))
        if name == "calabi_eckmann":
            return {"t": z(0.6)}
        return {s: z(0.5) for s in SIGMAS}

    def _draw(self, k: int) -> list:
        rng = self.rng(k)
        ops = []
        for name in CATALOG_NAMES:
            n = self.models[name][0].dim
            params = self._params(rng, name) if name in ("calabi_eckmann", "iwasawa_def") else None
            ops.append(("default", name, params, None))
            params = self._params(rng, name) if params is not None else None
            ops.append(("random", name, params, (self.pd_matrix(rng, n), float(rng.uniform(0.5, 2.0)))))
        for name in ("iwasawa3", "nakamura"):
            ops.append(("pair", name, None, (self.pd_matrix(rng, 3), self.pd_matrix(rng, 3))))
        u, v = (complex(math.cos(a), math.sin(a)) for a in rng.uniform(0, 2 * math.pi, 2))
        ops.append(("triple", "iwasawa3", None, (self.pd_matrix(rng, 3), u, v)))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def setup(self) -> None:
        from starsplit import HermitianMetric, classify
        for name, (M, H, _) in self.models.items():
            classify(M, HermitianMetric(H))

    def cycle(self, k: int):
        return [lambda op=op: self._run(op) for op in self.pool[k % POOL_CYCLES]]

    def _run(self, op) -> Outcome:
        from starsplit import HermitianMetric, analysis
        kind, name, params, data = op
        M, H, exp = self.models[name]
        if kind == "default":
            if params is None:
                rep, ms = timed(lambda: analysis.classify(M, HermitianMetric(H)))
            else:
                def run():
                    Mb, g, e = self.catalog.get(name, params)
                    return analysis.classify(Mb, g), e
                (rep, exp), ms = timed(run)
            ok = self._matches_catalog(rep, exp)
            digest = [kind, name, canon(rep.f), canon(rep.eigenvalues),
                      {k: v.holds for k, v in rep.flags.items()}]
        elif kind == "random":
            Hr, lam = data

            def run():
                Mb = M
                if params is not None:
                    Mb = M.bind(**params)
                    Mb.validate(TOL)
                g = HermitianMetric(Hr)
                return analysis.classify(Mb, g), Mb, g
            (rep, Mb, g), ms = timed(run)
            f_scaled = analysis.f_scalar(Mb, g.scaled(lam))
            ok = (self._residuals_ok(rep.f, rep.f_cross_residual, rep.star_rho,
                                     rep.star_rho_cross_residual, rep.tolerance)
                  and _close(f_scaled, rep.f / lam, 1e-9))
            digest = [kind, name, canon(rep.f), canon(rep.eigenvalues),
                      {k: v.holds for k, v in rep.flags.items()}]
        elif kind == "pair":
            Hw, Hg = data
            rep, ms = timed(lambda: analysis.pair_analysis(M, HermitianMetric(Hw), HermitianMetric(Hg)))
            ok = self._residuals_ok(rep.f, rep.f_cross_residual, rep.star_rho,
                                    rep.star_rho_cross_residual, rep.tolerance)
            digest = [kind, name, canon(rep.f), rep.pluriclosed.holds, rep.closed.holds]
        else:
            Hw, u, v = data
            phi = self.catalog.isometry_factory(name)(u, v)
            rep, ms = timed(lambda: analysis.triple_analysis(
                M, phi, HermitianMetric(Hw), HermitianMetric.identity(M.dim)))
            pr = rep.pair
            ok = (rep.structure_compatible and rep.gamma_isometric
                  and (rep.rho_pullback_residual is None or rep.rho_pullback_residual <= 1e-8)
                  and self._residuals_ok(pr.f, pr.f_cross_residual, pr.star_rho,
                                         pr.star_rho_cross_residual, pr.tolerance))
            digest = [kind, name, canon(pr.f), pr.pluriclosed.holds,
                      canon(rep.rho_pullback_residual)]
        return Outcome([ms], 0 if ok else 1, digest)

    @staticmethod
    def _residuals_ok(f, f_cross, star_rho, sr_cross, tol) -> bool:
        return (f_cross <= tol * (1.0 + abs(f))
                and sr_cross <= tol * (1.0 + star_rho.max_abs()))

    @staticmethod
    def _matches_catalog(rep, exp) -> bool:
        if not _close(rep.f, exp["f"], 1e-9):
            return False
        if any(rep.flags[k].holds != v for k, v in exp["flags"].items()):
            return False
        got, want = sorted(rep.eigenvalues), sorted(exp["eigenvalues"])
        return len(got) == len(want) and all(_close(a, b, 1e-9) for a, b in zip(got, want))


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------
class Search(Workload):
    """One cycle: one ``search_pss`` on ``iwasawa5`` with the hermitian
    family, budget 40 (two starts of 27 evaluations each, so 14 over
    budget).  An op is one feasible objective evaluation; its latency runs
    from its ``build`` call to the next one.  Infeasible points are counted
    in ``search.objective.feasible_ratio``, not as ops: they return at once,
    and whether a random restart is feasible varies by seed.  A search lasts
    seconds, so the machine-speed probe also runs between its evaluations.

    The family starts from a seed-drawn dense metric: from the identity,
    a fixed share of evaluations is sparse and ten times cheaper, and the
    median would sit between the two groups.  The n=3 diagonal-family
    searches run in the ``cli`` workload instead: their 2 ms evaluations
    would outnumber these 50 ms ones by a seed-dependent share."""

    name = "search"
    MODEL = "iwasawa5"
    BUDGET = 40

    def __init__(self, seed: int):
        super().__init__(seed)
        from starsplit import catalog, search
        self.search = search
        self.M = catalog.get(self.MODEL)[0]
        self.pool = [self._draw(k) for k in range(POOL_CYCLES)]

    def _draw(self, k: int):
        np = self.np
        rng = self.rng(k)
        H = self.pd_matrix(rng, 5)
        iu = np.triu_indices(5, 1)
        start = np.concatenate([H.diagonal().real,
                                np.column_stack([H[iu].real, H[iu].imag]).reshape(-1)])
        return start, int(rng.integers(2 ** 31))

    def setup(self) -> None:
        family = self.search.hermitian_family(5)
        g = family.build(self.pool[0][0])
        self.search.pss_defect(self.M, g)
        self.search.analysis.f_scalar(self.M, g)

    def cycle(self, k: int):
        return [lambda: self._run(*self.pool[k % POOL_CYCLES])]

    def _run(self, start, seed: int) -> Outcome:
        from starsplit import InputError
        family = self.search.hermitian_family(5)
        starts: List[float] = []
        ends: List[float] = []
        feasible: List[bool] = []
        base = family.build

        def build(x):
            ends.append(time.perf_counter())
            self.between_ops()
            starts.append(time.perf_counter())
            try:
                g = base(x)
            except InputError:
                feasible.append(False)
                raise
            feasible.append(True)
            return g

        family = dataclasses.replace(family, build=build, start=start)
        # a search that raises is one failed op: the timed loop counts it
        # and prints its traceback
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = self.search.search_pss(self.M, family, budget=self.BUDGET, seed=seed)
            finally:
                self.count("runtime_warnings",
                           sum(issubclass(w.category, RuntimeWarning) for w in caught))
        # Builds outside the objective: today a start check before the
        # evaluations and the winner's build after them.  An evaluation
        # runs from its build to the entry of the next build.
        evals = result.evaluations
        extras = len(starts) - evals
        ops: List[int] = []
        if 0 <= extras <= 2:
            lead = max(0, extras - 1)
            ops = [i for i in range(lead, lead + evals) if feasible[i]]
        latencies = [(ends[i + 1] - starts[i]) * 1e3 for i in ops if i + 1 < len(ends)]
        self.count("objective_calls", evals)
        self.count("objective_feasible", len(ops))
        self.count("evaluations_over_budget", max(0, evals - self.BUDGET))
        rep = result.report
        ok = (0 <= extras <= 2 and bool(latencies) and math.isfinite(result.best_defect)
              and (result.best_defect >= FOUND or rep.flags["pluriclosed_star_split"].holds)
              and rep.f_cross_residual <= rep.tolerance * (1.0 + abs(rep.f)))
        digest = [result.evaluations, canon(result.best_defect), canon(rep.f),
                  {k: v.holds for k, v in rep.flags.items()}]
        return Outcome(latencies, 0 if ok else max(1, len(latencies)), digest)


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------
class Suites(Workload):
    """One cycle: the commutation suite three times and the operator suite
    once on ``iwasawa5``, each suite once on ``nakamura``; every op has a
    fresh metric, the operator suite a distinct gamma.  With this mix the
    median op is the iwasawa5 commutation suite, inside a block of three
    equal ops per cycle rather than between two groups of different
    cost."""

    name = "suites"
    MIX = (("commutation", "iwasawa5"), ("commutation", "iwasawa5"), ("commutation", "iwasawa5"),
           ("operators", "iwasawa5"), ("commutation", "nakamura"), ("operators", "nakamura"))

    def __init__(self, seed: int):
        super().__init__(seed)
        from starsplit import catalog
        self.models = {name: catalog.get(name)[0] for name in ("iwasawa5", "nakamura")}
        self.pool = [self._draw(k) for k in range(POOL_CYCLES)]

    def _draw(self, k: int) -> list:
        rng = self.rng(k)
        ops = []
        for kind, name in self.MIX:
            n = self.models[name].dim
            ops.append((kind, name, self.pd_matrix(rng, n), self.pd_matrix(rng, n),
                        int(rng.integers(2 ** 31))))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def setup(self) -> None:
        seen = set()
        for op in self.pool[0]:
            if op[:2] not in seen:
                seen.add(op[:2])
                self._run(op)

    def cycle(self, k: int):
        return [lambda op=op: self._run(op) for op in self.pool[k % POOL_CYCLES]]

    def _run(self, op) -> Outcome:
        from starsplit import HermitianMetric, operators
        kind, name, H, Hg, seed = op
        M = self.models[name]
        if kind == "commutation":
            rep, ms = timed(lambda: operators.verify_commutation_suite(
                M, HermitianMetric(H), seed=seed))
        else:
            rep, ms = timed(lambda: operators.verify_operator_identities(
                M, HermitianMetric(H), HermitianMetric(Hg), seed=seed))
        ran = [e for e in rep.entries if e.passed is not None]
        ok = bool(ran) and rep.all_passed
        digest = [kind, name, len(rep.entries), len(ran), rep.all_passed, canon(rep.max_residual())]
        return Outcome([ms], 0 if ok else 1, digest)


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------
class Cli(Workload):
    """One cycle: five ``python -m starsplit.cli`` calls in fresh
    interpreters, one at a time: ``catalog list``, ``classify --json``,
    ``invariants --json`` and ``verify --suite all --json`` on n=3 models
    with seed-drawn metric files, and a budget-30 ``search``.  Each op pays
    the full cold start, which the in-process workloads pay once in set-up.
    The worker itself never imports ``starsplit``."""

    name = "cli"
    MODELS = ("iwasawa3", "nakamura", "calabi_eckmann")
    POOL = 3

    def __init__(self, seed: int, root: str, env: Dict[str, str], scratch: str,
                 launcher: Optional[List[str]] = None):
        super().__init__(seed)
        self.root = root
        self.env = env
        self.scratch = scratch
        self.launcher = launcher
        self.pool = [self._draw(k) for k in range(self.POOL)]

    def _metric_file(self, rng, k: int, tag: str) -> str:
        H = self.pd_matrix(rng, 3)
        path = os.path.join(self.scratch, f"metric-{k}-{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"type": "hermitian",
                       "matrix": [[float(z.real), float(z.imag)] for z in H.reshape(-1)]}, fh)
        return path

    def _model_args(self, rng, name: str) -> List[str]:
        args = ["--manifold", name]
        if name == "calabi_eckmann":
            t = 0.6 * rng.uniform(-1.0, 1.0, 2)
            args += ["--param", f"t={t[0]:.6f}{t[1]:+.6f}i"]
        return args

    def _draw(self, k: int) -> list:
        rng = self.rng(k)
        # models rotate with k, not with the seed, so that three cycles
        # hold the same work on every seed
        a, b, c = (self.MODELS[(k + i) % 3] for i in range(3))
        metric = self._metric_file(rng, k, "omega")
        gamma = self._metric_file(rng, k, "gamma")
        ops = [
            ("catalog", ["catalog", "list"]),
            ("classify", ["classify", *self._model_args(rng, a), "--metric", metric, "--json"]),
            ("invariants", ["invariants", *self._model_args(rng, b), "--metric", metric, "--json"]),
            ("verify", ["verify", *self._model_args(rng, c), "--metric", metric,
                        "--gamma", gamma, "--suite", "all", "--seed", str(int(rng.integers(1000))),
                        "--json"]),
            ("search", ["search", "--manifold", ("iwasawa3", "nakamura", "iwasawa3")[k % 3],
                        "--family", "diagonal", "--budget", "30",
                        "--seed", str(int(rng.integers(1000))), "--json"]),
        ]
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def command(self, args: List[str], op_id: int) -> List[str]:
        if self.launcher is not None:
            return [*self.launcher, str(op_id), "--", *args]
        return [sys.executable, "-m", "starsplit.cli", *args]

    def setup(self) -> None:
        self._call(["catalog", "list"], -1)

    def _call(self, args: List[str], op_id: int):
        t0 = time.perf_counter()
        proc = subprocess.run(self.command(args, op_id), cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc, (time.perf_counter() - t0) * 1e3

    def cycle(self, k: int):
        units = []
        for j, (kind, args) in enumerate(self.pool[k % self.POOL]):
            units.append(lambda kind=kind, args=args, op_id=k * 5 + j: self._run(kind, args, op_id))
        return units

    def _run(self, kind: str, args: List[str], op_id: int) -> Outcome:
        proc, ms = self._call(args, op_id)
        self.count("runtime_warnings", proc.stderr.count("RuntimeWarning"))
        ok, digest = False, [kind, proc.returncode]
        if proc.returncode == 0:
            try:
                ok, digest = self._check(kind, args, proc.stdout)
            except (ValueError, KeyError, TypeError):
                ok = False
        return Outcome([ms], 0 if ok else 1, digest)

    def _check(self, kind: str, args: List[str], out: str):
        if kind == "catalog":
            names = sorted(line.split()[0] for line in out.splitlines() if line.strip())
            return tuple(names) == CATALOG_NAMES, [kind, names]
        data = json.loads(out)
        if kind == "classify":
            rep = data["report"]
            f = rep["f"]
            res = rep["residuals"]
            star_max = max((math.hypot(*c) for c in rep["star_rho"].values()), default=0.0)
            ok = (res["f_cross"] <= TOL * (1.0 + abs(f))
                  and res["star_rho_cross"] <= TOL * (1.0 + star_max))
            return ok, [kind, canon(f), canon(rep["eigenvalues"]),
                        {k: v["holds"] for k, v in rep["flags"].items()}]
        if kind == "invariants":
            f, eigs = data["f"], data["eigenvalues"]
            # f is the trace of rho against the metric times (n-1)
            ok = _close(f, (len(eigs) - 1) * sum(eigs), 1e-8)
            return ok, [kind, canon(f), canon(eigs)]
        if kind == "verify":
            entries = [e for suite in data["suites"] for e in suite]
            ok = data["all_passed"] is True and any(e["pass"] is not None for e in entries)
            return ok, [kind, len(entries), data["all_passed"]]
        rep = data["report"]
        budget = int(args[args.index("--budget") + 1])
        self.count("evaluations_over_budget", max(0, data["evaluations"] - budget))
        ok = (math.isfinite(data["best_defect"])
              and (data["best_defect"] >= FOUND or rep["flags"]["pluriclosed_star_split"]["holds"]))
        return ok, [kind, data["evaluations"], canon(data["best_defect"]), canon(rep["f"])]


WORKLOADS = {"classify_mix": ClassifyMix, "search": Search, "suites": Suites, "cli": Cli}
