"""LP interchange files (documented subset) and the external-solver adapter.

Writer emits a canonical minimize-only LP text: objective, Subject To,
Bounds, End.  Every variable gets a Bounds line in instance order, so a
parse -> write round trip is byte-identical.  The companion solution file
is plain text: a status line, an objective line, then one "name value"
line per variable.

External solving writes the LP file, invokes the configured command as a
subprocess with the input and output paths appended (or substituted for
{in}/{out} placeholders), and parses the solution file back.
"""
from __future__ import annotations

import os
import re
import shlex
import subprocess
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

from .lp import LPBuilder, LPInstance, SolveResult, SolverError, Status
from .model import EQ, GE, LE

ENV_SOLVER = "SWC_EXTERNAL_SOLVER"

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")
_TOKEN_RE = re.compile(
    r"(?:\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|inf)|[A-Za-z_][A-Za-z0-9_.]*|[+\-]|<=|>=|="
)


class ExternalSolverNotFoundError(SolverError):
    """No external command configured or the executable is missing."""


class ExternalSolverFailedError(SolverError):
    """The external command exited with a nonzero status."""


class SolutionParseError(SolverError):
    """The solution file is missing or not in the documented format."""


def _num(v: float) -> str:
    return repr(float(v))


def _terms(names, cols, vals) -> str:
    parts = []
    for c, v in zip(cols, vals):
        if v == 0.0:
            continue
        sign = "-" if v < 0 else "+"
        parts.append(f"{sign} {_num(abs(v))} {names[c]}")
    return " ".join(parts)


def write_interchange(lp: LPInstance, destination=None) -> str:
    """Render the instance; optionally write to a path or file object."""
    names = lp.names if lp.names else tuple(f"x{j}" for j in range(lp.ncols))
    row_names = lp.row_names if lp.row_names else tuple(f"c{i}" for i in range(lp.nrows))
    for nm in names:
        if not _NAME_RE.match(nm):
            raise ValueError(f"variable name {nm!r} outside the documented subset")
    if len(set(names)) != len(names):
        dup = next(nm for nm, count in Counter(names).items() if count > 1)
        raise ValueError(f"duplicate variable name {dup!r}: columns are matched by name")
    out = ["\\ swcopt LP interchange", "Minimize"]
    obj_cols = np.nonzero(lp.obj)[0]
    body = _terms(names, obj_cols, lp.obj[obj_cols])
    if not body:
        body = f"+ {_num(0.0)} {names[0]}"
    out.append(f" obj: {body}")
    out.append("Subject To")
    for i in range(lp.nrows):
        cols, vals = lp.row(i)
        body = _terms(names, cols, vals)
        if not body:
            # trivial empty row: keep the file well-formed by anchoring on x0
            body = f"+ {_num(0.0)} {names[0]}"
        out.append(f" {row_names[i]}: {body} {lp.senses[i]} {_num(lp.rhs[i])}")
    out.append("Bounds")
    for j, nm in enumerate(names):
        lo, hi = lp.lower[j], lp.upper[j]
        if np.isinf(lo) and np.isinf(hi):
            out.append(f" {nm} free")
        else:
            lo_s = "-inf" if np.isinf(lo) else _num(lo)
            hi_s = "+inf" if np.isinf(hi) else _num(hi)
            out.append(f" {lo_s} <= {nm} <= {hi_s}")
    out.append("End")
    text = "\n".join(out) + "\n"
    if destination is not None:
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            Path(destination).write_text(text)
    return text


def _sections(text: str) -> dict[str, list[str]]:
    section = None
    out: dict[str, list[str]] = {"minimize": [], "subject to": [], "bounds": []}
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].strip()
        if not line:
            continue
        low = line.lower()
        if low in ("minimize", "min"):
            section = "minimize"
            continue
        if low in ("subject to", "st", "s.t.", "such that"):
            section = "subject to"
            continue
        if low == "bounds":
            section = "bounds"
            continue
        if low == "end":
            break
        if low in ("maximize", "max"):
            raise ValueError("only minimize objectives are in the supported subset")
        if section is None:
            raise ValueError(f"content before any section header: {line!r}")
        out[section].append(line)
    return out


_NUM_START = re.compile(r"^(?:\d|\.\d|inf)")


def _parse_terms(tokens: list[str]) -> list[tuple[str, float]]:
    terms = []
    sign = 1.0
    coef = None
    for tok in tokens:
        if tok == "+":
            pass
        elif tok == "-":
            sign = -sign
        elif _NUM_START.match(tok):
            coef = float(tok)
        else:
            terms.append((tok, sign * (1.0 if coef is None else coef)))
            sign, coef = 1.0, None
    return terms


_BOUND_RE = re.compile(
    r"^\s*([+-]?(?:inf|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?))\s*<=\s*"
    r"([A-Za-z_][A-Za-z0-9_.]*)\s*<=\s*"
    r"([+-]?(?:inf|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?))\s*$"
)
_FREE_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_.]*)\s+free\s*$", re.IGNORECASE)


def _bound_value(tok: str) -> float:
    t = tok.lstrip("+")
    if t == "inf":
        return np.inf
    if t == "-inf":
        return -np.inf
    return float(tok)


def parse_interchange(text: str) -> LPInstance:
    """Parse the documented subset back into an LPInstance.

    Variable order follows the Bounds section (canonical files list every
    variable there); names first seen elsewhere are appended afterwards.
    """
    sec = _sections(text)
    order: list[str] = []
    bounds: dict[str, tuple[float, float]] = {}
    for line in sec["bounds"]:
        m = _FREE_RE.match(line)
        if m is not None:
            name, lo, hi = m.group(1), -np.inf, np.inf
        else:
            m = _BOUND_RE.match(line)
            if m is None:
                raise ValueError(f"unparsable bounds line: {line!r}")
            lo, name, hi = _bound_value(m.group(1)), m.group(2), _bound_value(m.group(3))
        if name not in bounds:
            order.append(name)
        bounds[name] = (lo, hi)

    obj_line = " ".join(sec["minimize"])
    if ":" in obj_line:
        obj_line = obj_line.split(":", 1)[1]
    obj_terms = _parse_terms(_TOKEN_RE.findall(obj_line))

    rows = []
    for line in sec["subject to"]:
        rname = None
        if ":" in line:
            rname, line = line.split(":", 1)
            rname = rname.strip()
        toks = _TOKEN_RE.findall(line)
        sense_pos = max((i for i, t in enumerate(toks) if t in (LE, GE, "=")), default=-1)
        if sense_pos == len(toks) - 2:
            rhs = float(toks[-1])
        elif sense_pos == len(toks) - 3 and toks[-2] in ("+", "-"):
            rhs = float(toks[-1]) * (-1.0 if toks[-2] == "-" else 1.0)
        else:
            raise ValueError(f"unparsable constraint line: {line!r}")
        sense = EQ if toks[sense_pos] == "=" else toks[sense_pos]
        rows.append((rname, _parse_terms(toks[:sense_pos]), sense, rhs))

    for name, _ in obj_terms:
        if name not in bounds:
            bounds[name] = (0.0, np.inf)
            order.append(name)
    for _, terms, _, _ in rows:
        for name, _ in terms:
            if name not in bounds:
                bounds[name] = (0.0, np.inf)
                order.append(name)

    obj_acc: dict[str, float] = {}
    for name, coef in obj_terms:
        obj_acc[name] = obj_acc.get(name, 0.0) + coef

    b = LPBuilder()
    idx = {}
    for name in order:
        lo, hi = bounds[name]
        idx[name] = b.add_var(lo, hi, obj_acc.get(name, 0.0), name)
    for rname, terms, sense, rhs in rows:
        acc: dict[int, float] = {}
        for name, coef in terms:
            j = idx[name]
            acc[j] = acc.get(j, 0.0) + coef
        cols = sorted(acc)
        b.add_row(cols, [acc[c] for c in cols], sense, rhs, name=rname)
    return b.build()


# ---------------------------------------------------------------------------
# solution files

_STATUS_WORDS = {
    "optimal": Status.OPTIMAL,
    "infeasible": Status.INFEASIBLE,
    "unbounded": Status.UNBOUNDED,
    "iteration_limit": Status.ITERATION_LIMIT,
}


def write_solution(res: SolveResult, lp: LPInstance, destination=None) -> str:
    lines = [f"status {res.status.value}"]
    if res.status is Status.OPTIMAL:
        lines.append(f"objective {_num(res.objective)}")
        lines.append(f"iterations {res.iterations}")
        names = lp.names if lp.names else tuple(f"x{j}" for j in range(lp.ncols))
        for nm, v in zip(names, res.x):
            lines.append(f"{nm} {_num(v)}")
    text = "\n".join(lines) + "\n"
    if destination is not None:
        Path(destination).write_text(text)
    return text


def parse_solution(text: str, lp: LPInstance) -> SolveResult:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("status"):
        raise SolutionParseError("solution file must start with a status line")
    word = lines[0].split(maxsplit=1)[1].strip().lower()
    if word not in _STATUS_WORDS:
        raise SolutionParseError(f"unknown solver status {word!r}")
    status = _STATUS_WORDS[word]
    if status is not Status.OPTIMAL:
        return SolveResult(status, None, None)
    names = lp.names if lp.names else tuple(f"x{j}" for j in range(lp.ncols))
    index = {nm: j for j, nm in enumerate(names)}
    objective = None
    iterations = 0
    x = np.zeros(lp.ncols)
    for ln in lines[1:]:
        key, _, val = ln.partition(" ")
        if key == "objective":
            objective = float(val)
        elif key == "iterations":
            iterations = int(val)
        elif key in index:
            x[index[key]] = float(val)
        else:
            raise SolutionParseError(f"solution references unknown variable {key!r}")
    if objective is None:
        raise SolutionParseError("optimal solution without an objective line")
    return SolveResult(Status.OPTIMAL, objective, x, iterations)


def solve_external(lp: LPInstance, command: str | None = None) -> SolveResult:
    """Write interchange file, run the external command, parse the result."""
    command = command or os.environ.get(ENV_SOLVER)
    if not command:
        raise ExternalSolverNotFoundError(
            f"no external solver configured (set {ENV_SOLVER} or pass --solver-cmd)"
        )
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="swcopt-") as tmp:
        in_path = os.path.join(tmp, "problem.lp")
        out_path = os.path.join(tmp, "solution.sol")
        write_interchange(lp, in_path)
        argv = shlex.split(command)
        if any("{in}" in a or "{out}" in a for a in argv):
            argv = [a.replace("{in}", in_path).replace("{out}", out_path) for a in argv]
        else:
            argv = argv + [in_path, out_path]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True)
        except FileNotFoundError as exc:
            raise ExternalSolverNotFoundError(f"external solver executable not found: {argv[0]}") from exc
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip()[-500:]
            raise ExternalSolverFailedError(
                f"external solver exited with {proc.returncode}: {tail}"
            )
        if not os.path.exists(out_path):
            raise SolutionParseError("external solver produced no solution file")
        res = parse_solution(Path(out_path).read_text(), lp)
    res.time_s = time.perf_counter() - t0
    return res
