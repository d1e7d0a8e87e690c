"""The benchmark's four workloads: inputs made from a seed, timed calls and output checks.

Every workload runs in batches. Batch ``j`` has inputs derived from
``(seed, j)`` only, so the same seed gives the same inputs. The runner
in ``run.py`` calls each batch once with threads=1 and once with
threads=2, times only ``call``, and hands the raw results to ``collect``
and ``compare`` for checking. See README.md for why each workload exists.

Calls into wknn go through module attributes (``knn.neighbor_table``,
not a name bound at import), so the traced run's wrappers see them.
"""
from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from wknn import cli, core, experiments, knn, ot, rng, weights


@dataclass
class Outcome:
    """Checked result of one timed call."""

    reps: int
    failed: int
    key: object  # compared across thread counts; equal keys mean equal outputs
    rep_seconds: list = field(default_factory=list)
    rep_classes: list = field(default_factory=list)  # size class of each rep, as rep_seconds
    seconds: float = 0.0  # timed duration of the call, set by the runner


def _sub_seed(seed: int, j: int) -> int:
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


def _tol(x: float) -> float:
    return 1e-9 * max(1.0, abs(x))


# --- rate: the default rate-exp CLI run ----------------------------------------

RATE_GRID = (100, 200, 400, 800, 1600, 3200)
RATE_N = 100
# sha256 of summary.csv + ratefit.csv of `rate-exp --seed 0` on the default
# grid (and of `--reps 5` for the smoke size), computed at commit 47533f6.
RATE_DIGEST = {
    False: "dd291578a66a14abd78f521f8d9a6e608b8877e382d6be61713d954ec6934a1f",
    True: "d8c67d2575e1daccddd3b588307ef9662f6117e25878e3d7a2b09e224e9ab068",
}


class Rate:
    """``wknn rate-exp`` with its defaults: diag_uniform_gauss, n=100, k=1, q=2."""

    name = "rate"
    traced_batches = 2

    def __init__(self, seed: int, work: Path, smoke: bool = False):
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.reps = 5 if smoke else 200
        self.reps_per_batch = self.reps * len(RATE_GRID)
        self.scenario = experiments.builtin_scenario("diag_uniform_gauss")

    def batch(self, j: int) -> int:
        return _sub_seed(self.seed, j)

    def first_input(self) -> int:
        return self.batch(0)

    def _argv(self, seed: int, threads: int, out: Path, reps: int, grid=None) -> list[str]:
        argv = ["rate-exp", "--seed", str(seed), "--threads", str(threads),
                "--out", str(out), "--reps", str(reps)]
        if grid is not None:
            argv += ["--m-grid", ",".join(map(str, grid))]
        return argv

    def warm_up(self, seed: int) -> None:
        code = cli.main(self._argv(seed, 1, self.work / "warm_up", 1, RATE_GRID[:1]))
        if code != 0:
            raise RuntimeError(f"rate-exp warm-up exited with {code}")

    def call(self, seed: int, threads: int, rec=None) -> int:
        return cli.main(self._argv(seed, threads, self.work / f"t{threads}", self.reps))

    def collect(self, seed: int, threads: int, code: int) -> Outcome:
        if code != 0:
            return Outcome(self.reps_per_batch, self.reps_per_batch, None)
        out = self.work / f"t{threads}"
        rows = (out / "runs.csv").read_text(encoding="utf-8").splitlines()[1:]
        fields = [row.split(",") for row in rows]
        stats = [float(f[8]) for f in fields]
        secs = [float(f[9]) for f in fields]
        sizes = [int(f[1]) for f in fields]
        summary = (out / "summary.csv").read_bytes() + (out / "ratefit.csv").read_bytes()
        failed = abs(len(stats) - self.reps_per_batch)
        if threads == 1:
            failed += self._recheck_rows(seed, stats)
        return Outcome(self.reps_per_batch, failed, (summary, stats), secs, sizes)

    def _recheck_rows(self, seed: int, stats: list) -> int:
        """Recompute one rep per grid size row by row with the brute-force knn_query."""
        pick = np.random.default_rng([self.seed, seed])
        failed = 0
        for g, m in enumerate(RATE_GRID):
            rep = int(pick.integers(self.reps))
            gen = rng.stream(seed, rep)
            x = self.scenario.x_sampler(gen, RATE_N)
            train = core.Sample(self.scenario.xp_sampler(gen, m))
            dist = np.stack([knn.knn_query(row, train, 1)[1] for row in x])
            if float(np.mean(dist**2.0)) != stats[g * self.reps + rep]:
                failed += 1
        return failed

    def compare(self, a: Outcome, b: Outcome) -> int:
        if a.key[0] != b.key[0]:
            return a.reps
        return sum(x != y for x, y in zip(a.key[1], b.key[1]))

    def final_checks(self) -> tuple[int, int]:
        """Default seed (0) at threads=1 must reproduce the summary bytes of commit 47533f6."""
        out = self.work / "reference"
        code = cli.main(self._argv(0, 1, out, self.reps))
        if code != 0:
            return self.reps_per_batch, self.reps_per_batch
        blob = (out / "summary.csv").read_bytes() + (out / "ratefit.csv").read_bytes()
        ok = hashlib.sha256(blob).hexdigest() == RATE_DIGEST[self.smoke]
        return self.reps_per_batch, 0 if ok else self.reps_per_batch


# --- atom: criterion 12's noisy rate experiment at an atom -----------------------

ATOM_GRID = (200, 400, 800, 1600, 3200, 6400)
# sha256 of the summary and ratefit CSVs at base seed 0, computed at commit 47533f6.
ATOM_DIGEST = {
    False: "08030c62d6014e949060da6eddf1fa4dea8c62a47f8b4e6e662db8d1fd0c986b",
    True: "1421265d0e6f5fcdfb710ea250a9430f807bc2689169862408b3b5b39753794f",
}


class Atom:
    """noisy_rate_experiment on atom_demo (mu=0.25, sigma=0.1), k=ceil(sqrt(m))."""

    name = "atom"
    traced_batches = 3

    def __init__(self, seed: int, work: Path, smoke: bool = False):
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.n = 500 if smoke else 10_000
        self.grid = ATOM_GRID[:3] if smoke else ATOM_GRID
        self.reps = 2
        self.reps_per_batch = self.reps * len(self.grid)
        self.scenario = experiments.builtin_scenario("atom_demo", {"mu": 0.25, "sigma": 0.1})

    def batch(self, j: int) -> int:
        return _sub_seed(self.seed, j)

    def first_input(self) -> int:
        return self.batch(0)

    def _run(self, seed, threads, grid, reps):
        return experiments.noisy_rate_experiment(
            self.scenario, grid, self.n, reps, seed, threads=threads)

    def warm_up(self, seed: int) -> None:
        # The runner's log-log fit needs two grid sizes.
        self._run(seed, 1, self.grid[:2], 1)

    def call(self, seed: int, threads: int, rec=None):
        return self._run(seed, threads, self.grid, self.reps)

    def _summary_bytes(self, result) -> bytes:
        res, fit = result
        path = self.work / "summary.csv"
        experiments.write_summary_csv(path, res.summary, "m")
        blob = path.read_bytes()
        experiments.write_ratefit_csv(path, fit)
        return blob + path.read_bytes()

    def collect(self, seed: int, threads: int, result) -> Outcome:
        res, _ = result
        stats = [r.statistic for r in res.records]
        failed = abs(len(stats) - self.reps_per_batch)
        return Outcome(self.reps_per_batch, failed, (self._summary_bytes(result), stats),
                       [r.seconds for r in res.records], [r.m for r in res.records])

    compare = Rate.compare

    def final_checks(self) -> tuple[int, int]:
        blob = self._summary_bytes(self._run(0, 1, self.grid, self.reps))
        ok = hashlib.sha256(blob).hexdigest() == ATOM_DIGEST[self.smoke]
        return self.reps_per_batch, 0 if ok else self.reps_per_batch


# --- lp_small / lp_mid: certified exact transport solves -------------------------


@dataclass(frozen=True, eq=False)
class LpInstance:
    ev: core.Sample
    tr: core.Sample
    k: int
    q: float


def _lp_rep(inst: LpInstance):
    """One certified solve through wknn's public calls: table, weights, measure, LP."""
    table = knn.neighbor_table(inst.ev, inst.tr, inst.k)
    bound = ot.knn_transport_cost(table, inst.q)
    wv = weights.knn_weights(table, inst.tr.size)
    target = weights.weighted_measure(inst.tr, wv)
    cost, plan = ot.exact_wq(core.uniform_empirical(inst.ev), target, inst.q)
    return bound, cost, plan, target.masses


def _cost_matrix(a: np.ndarray, b: np.ndarray, q: float) -> np.ndarray:
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)) ** q


def check_solve(inst: LpInstance, bound, cost, plan, masses) -> bool:
    """Criteria 01-03 on one solve: closed form or bound, marginals, vertex size, cost."""
    n, m = inst.ev.size, inst.tr.size
    if inst.k == 1 and abs(cost - bound) > _tol(bound):
        return False
    if inst.k > 1 and bound < cost - _tol(bound):
        return False
    flow = np.zeros((n, m))
    for i, j, mass in plan.entries:
        flow[i, j] += mass
    if np.max(np.abs(flow.sum(axis=1) - 1.0 / n)) > 1e-9:
        return False
    if np.max(np.abs(flow.sum(axis=0) - masses)) > 1e-9:
        return False
    if len(plan.entries) > n + int(np.count_nonzero(masses > 0.0)) - 1:
        return False
    return abs(float(np.sum(flow * _cost_matrix(inst.ev.points, inst.tr.points, inst.q)))
               - cost) <= _tol(cost)


def highs_optimum(inst: LpInstance, masses: np.ndarray) -> float:
    """Independent optimum of the same transport LP from scipy's HiGHS."""
    from scipy import sparse
    from scipy.optimize import linprog

    keep = masses > 0.0
    b = masses[keep]
    n = inst.ev.size
    a = np.full(n, 1.0 / n)
    c = _cost_matrix(inst.ev.points, inst.tr.points[keep], inst.q)
    m = c.shape[1]
    a_eq = sparse.vstack([sparse.kron(sparse.eye(n), np.ones((1, m))),
                          sparse.kron(np.ones((1, n)), sparse.eye(m))]).tocsr()
    res = linprog(c.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b * (a.sum() / b.sum())]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


class _Lp:
    """Shared batch logic of the two LP workloads; subclasses draw the instances."""

    def __init__(self, seed: int, work: Path, smoke: bool = False):
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.highs_sample: list = []

    def batch(self, j: int) -> list:
        return self.instances(np.random.default_rng([self.seed, j]))

    def first_input(self) -> list:
        return self.batch(0)[:1]

    def warm_up(self, batch: list) -> None:
        for inst in batch:
            _lp_rep(inst)

    def call(self, batch: list, threads: int, rec=None) -> list:
        def timed(i):
            if rec is not None:
                rec.rep = i
            t0 = perf_counter()
            try:
                out = _lp_rep(batch[i])
            except Exception as exc:  # a failed solve is counted, the run goes on
                traceback.print_exc()
                out = exc
            return perf_counter() - t0, out

        return rng.indexed_map(timed, len(batch), threads)

    def collect(self, batch: list, threads: int, results: list) -> Outcome:
        failed = 0
        key = []
        for inst, (_, out) in zip(batch, results):
            if isinstance(out, Exception) or not check_solve(inst, *out):
                failed += 1
                key.append(None)
            else:
                key.append((out[1], out[2].entries))
        if threads == 1 and len(self.highs_sample) < self.highs_cap:
            pick = len(self.highs_sample) % len(batch)
            if not isinstance(results[pick][1], Exception):
                self.highs_sample.append((batch[pick], results[pick][1]))
        return Outcome(len(batch), failed, key, [secs for secs, _ in results],
                       [self.size_class(inst) for inst in batch])

    def compare(self, a: Outcome, b: Outcome) -> int:
        return sum(x != y for x, y in zip(a.key, b.key))

    def size_class(self, inst: LpInstance):
        """The rep's class for rep_ms_p50; lp_small's sizes are spread out, so one class."""
        return None

    def final_checks(self) -> tuple[int, int]:
        """HiGHS must agree with the certified cost on a sample of the solves."""
        failed = 0
        for inst, (_, cost, _, masses) in self.highs_sample:
            if abs(highs_optimum(inst, masses) - cost) > _tol(cost):
                failed += 1
        return 0, failed


LP_SMALL_K = (1, 2, 3, 5)


class LpSmall(_Lp):
    """Criteria 01-03 traffic: n, m in [1, 12], d in 1..3, q in {1, 2, 3}, k in {1, 2, 3, 5}."""

    name = "lp_small"
    traced_batches = 2
    highs_cap = 40

    def __init__(self, seed: int, work: Path, smoke: bool = False):
        super().__init__(seed, work, smoke)
        self.reps_per_batch = 20 if smoke else 1000

    def instances(self, gen):
        out = []
        for _ in range(self.reps_per_batch):
            n, m = (int(v) for v in gen.integers(1, 13, size=2))
            d = int(gen.integers(1, 4))
            q = float(gen.integers(1, 4))
            ks = [k for k in LP_SMALL_K if k <= m]
            k = ks[int(gen.integers(len(ks)))]
            out.append(LpInstance(core.Sample(gen.random((n, d))),
                                  core.Sample(gen.random((m, d))), k, q))
        return out


class LpMid(_Lp):
    """``distance --exact`` traffic: n=100, d=2, q=2, one solve per (m, k) in each batch."""

    name = "lp_mid"
    traced_batches = 3
    highs_cap = 8

    def __init__(self, seed: int, work: Path, smoke: bool = False):
        super().__init__(seed, work, smoke)
        self.n = 30 if smoke else 100
        self.combos = [(m, k) for m in ((30, 60) if smoke else (100, 400)) for k in (1, 4)]
        self.reps_per_batch = len(self.combos)

    def size_class(self, inst: LpInstance):
        return inst.tr.size, inst.k

    def instances(self, gen):
        return [LpInstance(core.Sample(gen.random((self.n, 2))),
                           core.Sample(gen.random((m, 2))), k, 2.0)
                for m, k in self.combos]


WORKLOADS = {cls.name: cls for cls in (Rate, Atom, LpSmall, LpMid)}


def make(name: str, seed: int, work: Path, smoke: bool = False):
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, work, smoke)
