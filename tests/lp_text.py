"""A reference reader for the LP text that ``mcf.export_lp`` writes, and an external solve.

It reads that format only: the comment line, ``Minimize``, one ``obj:``
line, ``Subject To`` with rows ``cK: terms <= rhs`` then ``cK: terms = rhs``,
``Bounds`` with one ``0 <= name <= upper`` line per column, and ``End``.
Every token is separated by a space; a term is ``[sign] [coefficient] name``.
Columns are numbered in Bounds order, which is the model's column order.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog


@dataclass
class ExportedLp:
    names: list[str]
    c: np.ndarray
    a_ub: sp.csr_matrix
    b_ub: np.ndarray
    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    upper: np.ndarray


def _check(ok: bool, what) -> None:
    # raises rather than asserts, so the checks hold under python -O too
    if not ok:
        raise ValueError(f"not export_lp's format: {what!r}")


def _terms(tokens: list[str], index: dict[str, int]) -> dict[int, float]:
    row: dict[int, float] = {}
    sign, coef = 1.0, 1.0
    for tok in tokens:
        if tok in ("+", "-"):
            sign = -1.0 if tok == "-" else 1.0
        elif tok[0].isdigit():
            coef = float(tok)
        else:
            row[index[tok]] = row.get(index[tok], 0.0) + sign * coef
            sign, coef = 1.0, 1.0
    return row


def _matrix(rows: list[dict[int, float]], n: int) -> sp.csr_matrix:
    indices = np.array([j for row in rows for j in row], dtype=np.int64)
    data = np.array([v for row in rows for v in row.values()], dtype=float)
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return sp.csr_matrix((data, indices, indptr), shape=(len(rows), n))


def read_exported_lp(path) -> ExportedLp:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _check(lines[:2] == ["\\ spannerkit flow model", "Minimize"] and lines[-1] == "End", lines[:2] + lines[-1:])
    _check(lines[2].startswith(" obj:") and lines[3] == "Subject To", lines[2:4])
    bounds = lines.index("Bounds")
    names, upper = [], []
    for line in lines[bounds + 1 : -1]:
        zero, le, name, le_again, up = line.split()
        _check((zero, le, le_again) == ("0", "<=", "<="), line)
        names.append(name)
        upper.append(float(up))
    index = {name: j for j, name in enumerate(names)}
    c = np.zeros(len(names))
    for j, value in _terms(lines[2].split()[1:], index).items():
        c[j] = value
    rows = {"<=": ([], []), "=": ([], [])}  # op -> (terms per row, right-hand sides)
    for k, line in enumerate(lines[4:bounds]):
        label, *tokens, op, rhs = line.split()
        _check(label == f"c{k}:" and not (op == "<=" and rows["="][0]), line)  # <= rows first
        rows[op][0].append(_terms(tokens, index))
        rows[op][1].append(float(rhs))
    return ExportedLp(
        names,
        c,
        _matrix(rows["<="][0], len(names)),
        np.array(rows["<="][1]),
        _matrix(rows["="][0], len(names)),
        np.array(rows["="][1]),
        np.array(upper),
    )


def solve_exported(lp: ExportedLp) -> float:
    """The optimum of ``lp`` by a direct HiGHS call, independent of ``mcf.solve_lp``."""
    res = linprog(
        lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
        bounds=[(0.0, up) for up in lp.upper], method="highs",
    )
    if res.status != 0:
        raise ValueError(res.message)
    return float(res.fun)
