"""Seeded workload generator for the geoequiv benchmark.

A workload is a list of normal-form specs, a list of negative controls
derived from generated scenes, and a list of reports (CLI argument
vectors) with the verdict each one must give.  The seed draws only the
coefficients: each workload has a fixed structure (dimensions, block
shapes, signatures, commands), so runs on different seeds do the same
amount of work and their throughputs can be compared.

Only the standard library is used here, so the parent process that
generates the inputs never imports numpy or geoequiv.
"""

from __future__ import annotations

import random

WORKLOADS = ("pointwise", "oracle", "constructions")

# Checks that must fail on a negative control, by command.
MUST_FAIL = {"check": "compatibility_residual", "oracle": "oracle_defect",
             "ts": "compatibility_residual"}

HALF_WIDTH = 0.4  # half-width of every simple-eigenvalue interval
BLOCK_HALF_WIDTH = 0.3


def _num(x: float) -> str:
    return repr(round(x, 3))


class _Draw:
    """Coefficient draws inside the normal-form contract: eigenvalue
    functions that stay nonzero and pairwise separated on the box, block
    metrics that stay nondegenerate."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def uniform(self, lo, hi):
        return self.rng.uniform(lo, hi)

    def levels(self, count):
        """Base eigenvalues, separated by at least 0.3 and bounded away
        from 0; a simple eigenvalue moves less than 0.09 from its level.

        Levels stay below about 3: the generator and the scene loader
        reject a metric whose determinant is at most 1e-10 in absolute
        terms, and det(gbar) shrinks like prod(lambda)^-(n+1), so larger
        spectra make every scene of dimension 5 or 6 unloadable.
        """
        return [0.4 + 0.45 * i + self.uniform(0.0, 0.15) for i in range(count)]

    def simple(self, level, sign=1):
        a = self.uniform(0.05, 0.2)
        kind = self.rng.choice(("lin", "sin", "cos", "exp"))
        if kind == "lin":
            lam = f"{_num(level)} + {_num(a)}*x0"
            base = level
        elif kind == "sin":
            lam = f"{_num(level)} + {_num(a)}*sin(x0)"
            base = level
        elif kind == "cos":
            lam = f"{_num(level)} + {_num(a)}*cos(x0)"
            base = level + round(a, 3)
        else:
            lam = f"{_num(level)}*exp({_num(a / abs(level))}*x0)"
            base = level
        entry = {"lambda": lam, "interval": [-HALF_WIDTH, HALF_WIDTH]}
        if sign < 0:
            entry["sign"] = -1
        return entry, round(base, 3)

    def block(self, level, dim=2, sign=1):
        a = self.uniform(0.8, 1.2)
        b = self.uniform(0.05, 0.2)
        c = self.uniform(1.1, 1.5)
        d = self.uniform(0.05, 0.15)
        if dim == 2:
            metric = [[_num(a), f"{_num(b)}*x1"], [None, f"{_num(c)} + {_num(d)}*x0^2"]]
        else:
            metric = [[_num(a), "0", f"{_num(b)}*x2"],
                      [None, f"{_num(c)} + {_num(d)}*x0^2", "0"],
                      [None, None, _num(a + c)]]
        entry = {"lambda": _num(level), "dim": dim, "metric": metric,
                 "intervals": [[-BLOCK_HALF_WIDTH, BLOCK_HALF_WIDTH]] * dim}
        if sign < 0:
            entry["sign"] = -1
        return entry, round(level, 3)


def _spec(draw, simple_signs, blocks=(), levels=None):
    """Normal-form spec with len(simple_signs) simple eigenvalues and one
    constant block per (dim, sign) in ``blocks``.  Returns the spec and the
    base-point spectrum with multiplicities."""
    if levels is None:
        levels = draw.levels(len(simple_signs) + len(blocks))
        draw.rng.shuffle(levels)
    spec = {"simple": [], "blocks": []}
    spectrum = []
    for sign, level in zip(simple_signs, levels):
        entry, base = draw.simple(level, sign)
        spec["simple"].append(entry)
        spectrum.append(base)
    for (dim, sign), level in zip(blocks, levels[len(simple_signs):]):
        entry, base = draw.block(level, dim, sign)
        spec["blocks"].append(entry)
        spectrum.extend([base] * dim)
    return spec, sorted(spectrum)


def _negative(source):
    """Perturb gbar[0][0] of a generated scene by a factor depending on
    the last coordinate; the pair is then not geodesically equivalent.
    The perturbation has a fixed size, so the margin by which the control
    fails varies with the seed only through the scene."""
    return {"source": source, "entry": [0, 0], "factor": "(1 + 0.4*x{last})"}


class Workload:
    """Inputs of one workload: specs to generate, negatives to derive,
    reports to run."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.specs = {}       # scene file name -> normal-form spec
        self.negatives = {}   # scene file name -> perturbation of a scene
        self.reports = []     # {"id", "argv", "expect", "must_fail"}
        self._draw = _Draw(seed)
        getattr(self, "_build_" + name)()

    # -- helpers ---------------------------------------------------------

    def _scene(self, label, simple_signs, blocks=(), levels=None):
        spec, spectrum = _spec(self._draw, simple_signs, blocks, levels)
        name = f"{label}.json"
        self.specs[name] = spec
        return name, spectrum

    def _negative_of(self, scene):
        name = "neg-" + scene
        self.negatives[name] = _negative(scene)
        return name

    def _report_seed(self):
        # The sampling seed of a report depends on its slot only: the
        # benchmark seed varies the scenes, while sample points and oracle
        # start data stay put, so every seed does about the same work.
        return str(1000 + len(self.reports))

    def _add(self, argv, expect=0):
        must_fail = MUST_FAIL.get(argv[0]) if expect == 2 else None
        self.reports.append({"id": " ".join(argv), "argv": argv,
                             "expect": expect, "must_fail": must_fail})

    # -- workloads -------------------------------------------------------
    # Each structure entry is (label, simple signs, blocks).  Mixed signs
    # give indefinite pairs, so both signatures are covered.  Every
    # workload has an odd number of report kinds, so the median latency
    # falls inside one kind instead of on the edge between two.

    POINTWISE = (
        ("n2", (1, 1), ()),
        ("n3", (1, -1, 1), ()),
        ("n4", (1, 1), ((2, 1),)),
        ("n5", (1, 1, -1), ((2, 1),)),
        ("n6", (1, 1, 1, 1), ((2, -1),)),
        ("n3b", (1,), ((2, -1),)),
        ("n4b", (), ((2, 1), (2, 1))),
        ("n6b", (1, -1, 1), ((3, 1),)),
    )
    POINTWISE_POINTS = "60"

    def _build_pointwise(self):
        scenes = [self._scene(label, signs, blocks)[0]
                  for label, signs, blocks in self.POINTWISE]
        negatives = [self._negative_of(s) for s in scenes[:5]]
        for scene in scenes:
            self._add(["check", scene, "--points", self.POINTWISE_POINTS,
                       "--seed", self._report_seed()])
        for scene in negatives:
            self._add(["check", scene, "--points", self.POINTWISE_POINTS,
                       "--seed", self._report_seed()], expect=2)

    ORACLE = (
        ("n2", (1, 1), ()),
        ("n3", (1, -1, 1), ()),
        ("n3b", (1,), ((2, 1),)),
        ("n4", (1, 1), ((2, -1),)),
    )
    ORACLE_TRAJECTORIES = "4"

    def _build_oracle(self):
        scenes = [self._scene(label, signs, blocks)[0]
                  for label, signs, blocks in self.ORACLE]
        negatives = [self._negative_of(s) for s in scenes[:3]]
        for scene in scenes:
            self._add(["oracle", scene, "--trajectories",
                       self.ORACLE_TRAJECTORIES, "--seed", self._report_seed()])
        for scene in negatives:
            self._add(["oracle", scene, "--trajectories",
                       self.ORACLE_TRAJECTORIES, "--seed", self._report_seed()],
                      expect=2)

    CONSTRUCTION_POINTS = "5"

    def _build_constructions(self):
        s3, spec3 = self._scene("n3", (1, 1, 1))
        s4, spec4 = self._scene("n4", (1, -1), ((2, 1),))
        # glue factors sit on separate levels, so their spectra stay disjoint
        fa, _ = self._scene("fa", (1,), levels=[self._draw.uniform(1.0, 1.4)])
        fc, _ = self._scene("fc", (), ((2, 1),),
                            levels=[self._draw.uniform(3.4, 3.8)])
        pts = self.CONSTRUCTION_POINTS

        # split: the smallest and the largest base eigenvalue (with its
        # multiplicity) against the rest
        for scene, spec in ((s3, spec3), (s4, spec4)):
            n = len(spec)
            low, high = spec.count(spec[0]), n - spec.count(spec[-1])
            for cut in (low, high):
                groups = (",".join(map(str, range(cut))) + "|"
                          + ",".join(map(str, range(cut, n))))
                self._add(["split", scene, "--groups", groups, "--points", pts,
                           "--seed", self._report_seed()])

        # ts: exp, a polynomial and a reciprocal that stay nonzero and
        # finite on the spectrum (every eigenvalue stays within 0.1 of its base value)
        lo = min(spec3)
        c1 = self._draw.uniform(0.2, 0.5)
        shift = lo - self._draw.uniform(0.6, 1.0)
        for f in ("exp", f"poly:1,{_num(c1)}", f"recip:{_num(shift)}"):
            self._add(["ts", s3, "--f", f, "--points", pts,
                       "--seed", self._report_seed()])
        neg = self._negative_of(s3)
        self._add(["ts", neg, "--f", f"poly:1,{_num(c1)}", "--points", pts,
                   "--seed", self._report_seed()], expect=2)

        # one glue report, the costliest kind: with nine kinds of equal
        # weight the median falls inside the split reports and the tail
        # percentile never sits on the edge between two kinds
        self._add(["glue", fa, fc, "--points", pts, "--trajectories", "1",
                   "--seed", self._report_seed()])
