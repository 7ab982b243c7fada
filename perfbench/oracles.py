"""Oracles for the benchmark's workloads, independent of the code they check.

Nothing here imports kocom.  Each oracle turns a pass's condensed
per-operation records into a list of failures; run.py counts them toward
error_rate.  `plant=True` deliberately corrupts one expected value
per workload, so a smoke test can prove that no workload passes vacuously.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REGRESSION_REFS = HERE / "regression_refs"


def parse_group(text: str) -> tuple:
    """'0', 'Z', 'Z^3', 'Z/2 + Z/4', ... -> (free rank, sorted torsion orders)."""
    free, torsion = 0, []
    if text != "0":
        for part in text.split(" + "):
            if part == "Z":
                free += 1
            elif part.startswith("Z^"):
                free += int(part[2:])
            elif part.startswith("Z/"):
                torsion.append(int(part[2:]))
            else:
                raise ValueError(f"unreadable group {text!r}")
    return free, sorted(torsion)


def _errors(records):
    return [(r["op"], r["error"]) for r in records if "error" in r]


# -- verify-all ---------------------------------------------------------------


class VerifyAll:
    """Exit code 0, no failed check, |K||N| + |K| + 33 + 39 + 15 + 80 checks,
    and report bytes equal to those of the real CLI process."""

    def __init__(self, inputs, root, plant):
        (k_lo, k_hi), (n_lo, n_hi) = inputs["k_range"], inputs["n_range"]
        ks, ns = k_hi - k_lo + 1, n_hi - n_lo + 1
        self.expected_checks = ks * ns + ks + 33 + 39 + 15 + 80 + (1 if plant else 0)
        self.reference_sha = None  # sha256 of the CLI process's --out report

    def failures(self, records):
        out = _errors(records)
        for r in records:
            if "error" in r:
                continue
            if r["rc"] != 0:
                out.append((r["op"], f"exit code {r['rc']}"))
            elif r["failed"]:
                out.append((r["op"], f"{r['failed']} failed checks"))
            elif r["total"] != self.expected_checks:
                out.append((r["op"], f"{r['total']} checks, expected {self.expected_checks}"))
            elif r["sha"] != self.reference_sha:
                out.append((r["op"], "report bytes differ from the CLI process's report"))
        return out


# -- char-deep ----------------------------------------------------------------


def char_dimension(d: int) -> int:
    """Hilbert series of F2[w1,w2,r,s]/(w1 r, r^2, r s, s^2): 2*floor(d/2) + 1."""
    return 2 * (d // 2) + 1


class CharDeep:
    """Every check passes, the suite has its 15 checks, the basis through the
    cap has sum_d (2*floor(d/2) + 1) elements, and alg.dimension(d) follows
    the Hilbert series for every d <= cap."""

    def __init__(self, inputs, root, plant):
        self.plant = plant

    def dims(self, cap):
        dims = [char_dimension(d) for d in range(cap + 1)]
        if self.plant:
            dims[2] += 1
        return dims

    def failures(self, records):
        out = _errors(records)
        for r in records:
            if "error" in r:
                continue
            n = sum(self.dims(int(r["op"].split("=")[1])))
            if r["failed"]:
                out.append((r["op"], f"failed checks {r['failed']}"))
            elif r["total"] != 15:
                out.append((r["op"], f"{r['total']} checks, expected 15"))
            elif r["involution"] != f"{n}/{n}":
                out.append((r["op"], f"basis count {r['involution']}, expected {n}/{n}"))
        return out

    def probe_failures(self, probe):
        return [
            (f"dimensions cap={cap}", f"{dims} != {self.dims(int(cap))}")
            for cap, dims in probe.items()
            if dims != self.dims(int(cap))
        ]


# -- surface-wide -------------------------------------------------------------


class SurfaceWide:
    """Units (Z/2)^(2g+1) for genus:g and Z/4 + (Z/2)^(n-1) for rp:n, with
    2^(b1+1) elements, and a presentation byte-equal to the golden file or,
    where none exists, to the regression reference recorded from the first
    benchmarked commit."""

    def __init__(self, inputs, root, plant):
        self.plant = plant
        golden_dir = Path(root) / "src" / "kocom" / "golden"
        self.reference_sha = {}
        for label in inputs["surfaces"]:
            name = label.replace(":", "") + ".txt"
            for path in (golden_dir / name, REGRESSION_REFS / name):
                if path.is_file():
                    self.reference_sha[label] = hashlib.sha256(path.read_bytes()).hexdigest()
                    break

    def expected(self, label):
        kind, count = label.split(":")
        count = int(count)
        if kind == "genus":
            b1, torsion = 2 * count, [2] * (2 * count + 1)
        else:
            b1, torsion = count, [2] * (count - 1) + [4]
        elements = 2 ** (b1 + 1) * (2 if self.plant else 1)
        return torsion, elements

    def failures(self, records):
        out = _errors(records)
        for r in records:
            if "error" in r:
                continue
            torsion, elements = self.expected(r["op"])
            if parse_group(r["factors"]) != (0, torsion):
                out.append((r["op"], f"units {r['factors']}"))
            elif r["elements"] != elements:
                out.append((r["op"], f"{r['elements']} units, expected {elements}"))
            elif r["sha"] != self.reference_sha.get(r["op"]):
                out.append((r["op"], "presentation differs from its reference"))
        return out


# -- component-complex --------------------------------------------------------


def component_rank(n: int) -> int:
    """1 + (4^n - 3*2^n + 2)/6 components of commuting n-tuples."""
    return 1 + (4**n - 3 * 2**n + 2) // 6


def _canonical(t):
    """None for tuples generating a cyclic group (the trivial component),
    else the tuple relabeled by first appearance of its involutions; any
    permutation of 1, 2, 3 is an automorphism of Z/2 x Z/2 under XOR."""
    labels = {}
    for x in t:
        if x and x not in labels:
            labels[x] = len(labels) + 1
    if len(labels) < 2:
        return None
    if len(labels) == 2:
        a, b = labels
        labels[a ^ b] = 3  # the third involution, absent from t
    return tuple(labels.get(x, 0) for x in t)


def _faces(t):
    n = len(t)
    yield 0, t[1:]
    for i in range(1, n):
        yield i, t[: i - 1] + (t[i - 1] ^ t[i],) + t[i + 1 :]
    yield n, t[:-1]


def klein_boundaries(top: int) -> tuple:
    """Columns {row: coefficient} of the alternating face-map boundary
    d_n for 1 <= n <= top, on the four-group model of the components, and
    the number of components at each level 0..top."""
    levels = []
    for n in range(top + 1):
        exotic = sorted({c for c in map(_canonical, itertools.product(range(4), repeat=n)) if c})
        levels.append([None] + exotic)
    index = [{c: i for i, c in enumerate(level)} for level in levels]
    out = {}
    for n in range(1, top + 1):
        columns = []
        for comp in levels[n]:
            rep = comp if comp is not None else (0,) * n
            col = {}
            for i, face in _faces(rep):
                row = index[n - 1][_canonical(face)]
                col[row] = col.get(row, 0) + (-1) ** i
            columns.append({r: c for r, c in col.items() if c})
        out[n] = columns
    return out, [len(level) for level in levels]


def rank_mod(columns, q: int) -> int:
    """Rank over F_q of a matrix given by sparse columns."""
    pivots = {}
    rank = 0
    for col in columns:
        v = {r: c % q for r, c in col.items() if c % q}
        while v:
            r = min(v)
            pivot = pivots.get(r)
            if pivot is None:
                inv = pow(v[r], -1, q)
                pivots[r] = {k: c * inv % q for k, c in v.items()}
                rank += 1
                break
            f = v[r]
            for k, c in pivot.items():
                value = (v.get(k, 0) - f * c) % q
                if value:
                    v[k] = value
                else:
                    v.pop(k, None)
    return rank


class ComponentComplex:
    """Level-n ranks 1 + (4^n - 3*2^n + 2)/6, H_2 = Z/2 as the paper states,
    and every H_p consistent, by the universal coefficient theorem, with
    the F2 and F3 Betti numbers of an independent four-group model."""

    PRIMES = (2, 3)

    def __init__(self, inputs, root, plant):
        top = inputs["top"]
        self.ranks = [component_rank(n) + (1 if plant and n == 3 else 0) for n in range(top + 1)]
        boundaries, model_ranks = klein_boundaries(top)
        self.model_ranks = model_ranks
        rank = {(n, q): rank_mod(boundaries[n], q) for n in boundaries for q in self.PRIMES}
        self.betti = {
            (p, q): model_ranks[p] - rank.get((p, q), 0) - rank.get((p + 1, q), 0)
            for p in range(top)
            for q in self.PRIMES
        }
        # H_0 is the cokernel of the one-row d_1; its torsion is the gcd of the row.
        g = math.gcd(*(col.get(0, 0) for col in boundaries[1])) if top >= 1 else 0
        self.h0_torsion = [g] if g > 1 else []

    def failures(self, records):
        out = _errors(records)
        groups = {0: None}
        for r in records:
            if "error" in r:
                continue
            if r["op"] == "build":
                if r["ranks"] != self.ranks or self.model_ranks != self.ranks:
                    out.append((r["op"], f"ranks {r['ranks']}, expected {self.ranks}"))
            else:
                groups[int(r["op"][1:])] = parse_group(r["group"])
        for p, group in groups.items():
            if p == 0:
                continue
            if p == 2 and group != (0, [2]):
                out.append(("H2", f"H_2 = {group}, the paper states Z/2"))
                continue
            below = self.h0_torsion if p == 1 else (groups.get(p - 1) or (0, None))[1]
            if below is None:
                out.append((f"H{p}", f"H_{p - 1} missing, universal coefficients not checkable"))
                continue
            free, torsion = group
            for q in self.PRIMES:
                predicted = free + sum(d % q == 0 for d in torsion) + sum(d % q == 0 for d in below)
                if predicted != self.betti[(p, q)]:
                    out.append((f"H{p}", f"F{q} Betti number {self.betti[(p, q)]}, H_p predicts {predicted}"))
        return out


ORACLES = {
    "verify-all": VerifyAll,
    "char-deep": CharDeep,
    "surface-wide": SurfaceWide,
    "component-complex": ComponentComplex,
}
