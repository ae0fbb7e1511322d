"""Inventory management with cumulative orders: the built-in benchmark.

A retailer faces uncertain demand over stages 1..H-1 (revealed one stage
ahead of each decision), orders at unit cost d, holds at h, backlogs at p,
and carries a cumulative-order commitment state bounded per period.

Stage variables (in order):
  stage 1:        x_o (order), x_c (period cost), s_co (commitment level)
  stage 2..H-1:   x_o, x_c, s_inv (inventory, signed), s_co
  stage H:        x_c, s_inv, s_co
with dynamics s_inv' = s_inv + x_o - demand and s_co' = s_co + x_o, the
period cost linearized as x_c >= d*x_o + h*s_inv and x_c >= d*x_o - p*s_inv,
and commitment bounds L_t <= s_co^t <= U_t for t = 1..H-1 (the final state
s_co^H carries no bound pair).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    GE,
    LE,
    EQ,
    AffineMap,
    BoxSupport,
    IntegerBoxSupport,
    MultistageRobustLP,
    StageBlock,
    StageDims,
    UncertaintySet,
)

#: design-variable count of this benchmark: (x_o, x_c, s_co) plus the budget
BENCHMARK_N0 = 4

#: accuracy grid of the reference experiment, largest to smallest
PAPER_EPSILONS = (0.3, 0.2, 0.1, 0.05, 0.01, 0.005, 0.001, 0.0005, 0.00025)

#: demand intervals of the integer-valued variant, as published; the integer
#: support is the lattice strictly inside each interval
INTEGER_DEMAND_INTERVALS = ((52.5, 97.5), (70.0, 130.0), (87.5, 163.0), (100.0, 186.0))


def nominal_demand(t: int) -> float:
    """Seasonal nominal demand 100*(1 + 0.5*sin(pi*(t-2)/6)) for period t >= 1."""
    if t < 1:
        raise ValueError(f"period must be >= 1, got {t}")
    return 100.0 * (1.0 + 0.5 * math.sin(math.pi * (t - 2) / 6.0))


@dataclass(frozen=True)
class InventoryData:
    stages: int
    backlog_cost: float
    order_cost: float
    holding_cost: float
    initial_inventory: float
    order_lower: tuple[float, ...]
    order_upper: tuple[float, ...]
    cum_lower: tuple[float, ...]
    cum_upper: tuple[float, ...]
    demand_level: float
    demand_nominal: tuple[float, ...]

    def __post_init__(self):
        H = self.stages
        if H < 2:
            raise ValueError("need at least two stages")
        for name in ("order_lower", "order_upper", "cum_lower", "cum_upper", "demand_nominal"):
            if len(getattr(self, name)) != H - 1:
                raise ValueError(f"{name} needs {H - 1} entries")
        if any(l > u for l, u in zip(self.cum_lower, self.cum_upper)):
            raise ValueError("cumulative bounds crossed")
        if not 0.0 <= self.demand_level <= 1.0:
            raise ValueError("demand level must lie in [0,1]")
        if any(d <= 0 for d in self.demand_nominal):
            raise ValueError("nominal demand must be positive")


_CUM_LOWER = (47.0, 134.0, 188.0, 429.0)
_CUM_UPPER = (94.0, 248.0, 370.0, 586.0)


def table_data(stages: int = 5) -> InventoryData:
    """Benchmark data: costs (p,d,h) = (11,1,10), empty initial inventory,
    unconstrained per-period orders, the published commitment bounds, and
    30% demand uncertainty around the seasonal nominal."""
    if not 2 <= stages <= 5:
        raise ValueError("benchmark data covers 2..5 stages")
    k = stages - 1
    return InventoryData(
        stages=stages,
        backlog_cost=11.0,
        order_cost=1.0,
        holding_cost=10.0,
        initial_inventory=0.0,
        order_lower=(0.0,) * k,
        order_upper=(math.inf,) * k,
        cum_lower=_CUM_LOWER[:k],
        cum_upper=_CUM_UPPER[:k],
        demand_level=0.3,
        demand_nominal=tuple(nominal_demand(t) for t in range(1, stages)),
    )


def integer_demand_supports(stages: int = 5) -> tuple[IntegerBoxSupport, ...]:
    """Integer lattice supports inside the published demand intervals."""
    if not 2 <= stages <= 5:
        raise ValueError("integer variant covers 2..5 stages")
    out = []
    for lo, hi in INTEGER_DEMAND_INTERVALS[: stages - 1]:
        out.append(IntegerBoxSupport(np.array([math.ceil(lo)]), np.array([math.floor(hi)])))
    return tuple(out)


def build_coc(data: InventoryData, supports=None) -> MultistageRobustLP:
    """Assemble the multistage robust LP for the cumulative-order model.

    `supports` overrides the per-stage demand supports (default: boxes
    nominal*(1 +/- level)); used by the integer-demand variant.
    """
    H = data.stages
    p, d, h = data.backlog_cost, data.order_cost, data.holding_cost
    n = (3,) + (4,) * (H - 2) + (3,)

    def order_bound_rows(t):
        rows = []
        lo, hi = data.order_lower[t - 1], data.order_upper[t - 1]
        if lo > 0:
            rows.append(("lo", lo))
        if math.isfinite(hi):
            rows.append(("hi", hi))
        return rows

    # stage 1: x_c >= d*x_o + max(h,-p)*s_inv1 (two rows), commitment bounds
    names1 = ("x_o1", "x_c1", "s_co1")
    A_rows, h1, senses1 = [], [], []
    A_rows.append([-d, 1.0, 0.0]); h1.append(h * data.initial_inventory); senses1.append(GE)
    A_rows.append([-d, 1.0, 0.0]); h1.append(-p * data.initial_inventory); senses1.append(GE)
    A_rows.append([0.0, 0.0, 1.0]); h1.append(data.cum_lower[0]); senses1.append(GE)
    A_rows.append([0.0, 0.0, 1.0]); h1.append(data.cum_upper[0]); senses1.append(LE)
    for kind, bound in order_bound_rows(1):
        A_rows.append([1.0, 0.0, 0.0])
        h1.append(bound)
        senses1.append(GE if kind == "lo" else LE)
    A = np.array(A_rows)
    c1 = np.array([0.0, 1.0, 0.0])

    blocks = []
    m = [len(h1)]
    # demands are scalar per stage, so flat component t-2 is xi^{t-1}
    for t in range(2, H + 1):
        last = t == H
        # variable order within the stage
        if last:
            names_t = (f"x_c{t}", f"s_inv{t}", f"s_co{t}")
            XO, XC, SI, SC = None, 0, 1, 2
        else:
            names_t = (f"x_o{t}", f"x_c{t}", f"s_inv{t}", f"s_co{t}")
            XO, XC, SI, SC = 0, 1, 2, 3
        nt = len(names_t)
        np_ = n[t - 2]
        # previous-stage variable positions
        pXO, pSI, pSC = (0, 2, 3) if t > 2 else (0, None, 2)
        rows_T, rows_W, rows_h, senses = [], [], [], []

        def add(Trow, Wrow, rhs, sense):
            rows_T.append(Trow)
            rows_W.append(Wrow)
            rows_h.append(rhs)
            senses.append(sense)

        zT = [0.0] * np_
        zW = [0.0] * nt
        # inventory balance: s_inv^t - s_inv^{t-1} - x_o^{t-1} = init - xi^{t-1}
        Trow = zT.copy(); Trow[pXO] = -1.0
        base = 0.0
        if t > 2:
            Trow[pSI] = -1.0
        else:
            base = data.initial_inventory
        Wrow = zW.copy(); Wrow[SI] = 1.0
        add(Trow, Wrow, ("affine", base, t - 2), EQ)
        # commitment balance: s_co^t - s_co^{t-1} - x_o^{t-1} = 0
        Trow = zT.copy(); Trow[pSC] = -1.0; Trow[pXO] = -1.0
        Wrow = zW.copy(); Wrow[SC] = 1.0
        add(Trow, Wrow, 0.0, EQ)
        # commitment bounds carry a pair only through period H-1
        if not last:
            Wrow = zW.copy(); Wrow[SC] = 1.0
            add(zT.copy(), Wrow, data.cum_lower[t - 1], GE)
            Wrow = zW.copy(); Wrow[SC] = 1.0
            add(zT.copy(), Wrow, data.cum_upper[t - 1], LE)
        # period cost linearization of max{h*s, -p*s}
        Wrow = zW.copy(); Wrow[XC] = 1.0; Wrow[SI] = -h
        if not last:
            Wrow[XO] = -d
        add(zT.copy(), Wrow, 0.0, GE)
        Wrow = zW.copy(); Wrow[XC] = 1.0; Wrow[SI] = p
        if not last:
            Wrow[XO] = -d
        add(zT.copy(), Wrow, 0.0, GE)
        if not last:
            for kind, bound in order_bound_rows(t):
                Wrow = zW.copy(); Wrow[XO] = 1.0
                add(zT.copy(), Wrow, bound, GE if kind == "lo" else LE)

        mt = len(rows_h)
        h_base = np.zeros(mt)
        h_terms = []
        for i, rhs in enumerate(rows_h):
            if isinstance(rhs, tuple):
                _, base, comp = rhs
                h_base[i] = base
                term = np.zeros(mt)
                term[i] = -1.0
                h_terms.append((comp, term))
            else:
                h_base[i] = rhs
        c_t = np.zeros(nt)
        c_t[XC] = 1.0
        blocks.append(
            StageBlock(
                T=AffineMap(np.array(rows_T)),
                W=AffineMap(np.array(rows_W)),
                h=AffineMap(h_base, tuple(h_terms)),
                c=AffineMap(c_t),
                senses=tuple(senses),
            )
        )
        m.append(mt)

    if supports is None:
        supports = tuple(
            BoxSupport(np.array([xb]), data.demand_level) for xb in data.demand_nominal
        )
    nonneg = []
    var_names = [names1]
    for t in range(1, H + 1):
        if t == 1:
            nonneg.append((True, True, True))
        elif t == H:
            nonneg.append((True, False, True))  # x_c, s_inv (signed), s_co
        else:
            nonneg.append((True, True, False, True))
    for t in range(2, H + 1):
        if t == H:
            var_names.append((f"x_c{t}", f"s_inv{t}", f"s_co{t}"))
        else:
            var_names.append((f"x_o{t}", f"x_c{t}", f"s_inv{t}", f"s_co{t}"))
    return MultistageRobustLP(
        dims=StageDims(H, n, tuple(m)),
        A=A,
        h1=np.array(h1),
        c1=c1,
        senses1=tuple(senses1),
        stages=tuple(blocks),
        uncertainty=UncertaintySet(tuple(supports)),
        nonneg=tuple(nonneg),
        var_names=tuple(var_names),
    )


def inventory_benchmark(stages: int = 5, variant: str = "continuous") -> MultistageRobustLP:
    """The benchmark model; variant 'continuous' (box demand) or 'integer'."""
    data = table_data(stages)
    if variant == "continuous":
        return build_coc(data)
    if variant in ("integer", "integerDemand", "integer_demand"):
        return build_coc(data, supports=integer_demand_supports(stages))
    raise ValueError(f"unknown variant {variant!r}")

