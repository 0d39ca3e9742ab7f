"""Command-line front end: verification runs and experiment sweeps.

Subcommands
    gauss        evaluate G(a, b, n), or sweep the closed-form-vs-oracle check
    sphere       sphere counts with error terms and bound ratios
    spectrum     two-route sphere spectra and the decay bound
    nu           brute vs spectral pair counts for a point set
    certificate  positivity-certificate sweep for a point set
    construct    emit the explicit zero-distance constructions
    verify-all   the full property suite

One row per instance, CSV by default (JSON mirrors it).  Output is
deterministic for a fixed configuration: fixed seeds, rows in lexicographic
instance order, repr-stable float formatting, '\\n' line endings, no locale
dependence.  Relative --out paths resolve under $ZQDIST_OUT_DIR when set.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage/resource error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from .arith import as_modulus
from .distset import (
    DEFAULT_PAIR_BUDGET,
    PointSet,
    _lattice_shape,
    _splitmix64,
    certificate_check,
    construct_even_weight,
    construct_zero_distance_lattice,
    distance_set,
    nu_histogram,
    nu_spectral_sweep,
    read_pointset,
    sample_random_set,
    theorem_threshold,
    write_pointset,
)
from .errors import BudgetError, DomainError, InconsistencyError
from .fourier import (
    DEFAULT_GRID_BUDGET,
    GridFunction,
    _kernel,
    _pass_charge,
    check_grid_budget,
    forward,
    inverse,
    orthogonality_max_defect,
    plancherel_defect,
)
from .gauss import gauss_brute, gauss_general, gauss_row
from .sphere import (
    _class_ids,
    _class_kernel,
    _norms,
    decay_report,
    sphere_count_formula,
    sphere_counts_all,
    sphere_enumerate,
    sphere_fourier_direct,
    sphere_size_bound_check,
    sphere_spec,
)

DEFAULT_SEED = 1


# ---------------------------------------------------------------------------
# output plumbing


# every cell a row holds is one of these exact types
_FMT_EXACT = {
    type(None): lambda v: "",
    bool: lambda v: "true" if v else "false",
    int: str,
    float: lambda v: format(v, ".12g"),
    str: str,
}


def _fmt(v) -> str:
    return _FMT_EXACT[type(v)](v)


def _resolve_out(path: "str | None") -> "str | None":
    if path is None:
        return None
    if not os.path.isabs(path):
        base = os.environ.get("ZQDIST_OUT_DIR")
        if base:
            return os.path.join(base, path)
    return path


def _emit(columns: list[str], rows: list[dict], args) -> None:
    out = _resolve_out(args.out)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(row.get(c)) for c in columns] for row in rows)
        text = buf.getvalue()
    else:
        payload = [{c: row.get(c) for c in columns} for row in rows]
        text = json.dumps(payload, indent=None, separators=(",", ":")) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        parent = os.path.dirname(out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# gauss


def _gauss_tol(n: int) -> float:
    """How far a rendered closed form may lie from gauss_brute for modulus n:
    gauss_brute's bound (sqrt(2) (n + 2) + 22) eps n, plus the rendering
    error of the closed form, 16 eps |G| (as sphere._kernel_formula takes
    it), with |G(a, b, n)| <= sqrt(2 gcd(a, n) n) <= sqrt(2) n."""
    eps = float(np.finfo(np.float64).eps)
    return (math.sqrt(2) * (n + 2) + 22 + 16 * math.sqrt(2)) * eps * n


def _gauss_sweep_row(n: int) -> dict:
    """Closed form against the oracle for every (a, b) in Z_n^2, one call of each."""
    a = np.arange(n)
    worst = float(np.abs(gauss_row(a, n) - gauss_brute(a[:, None], a, n)).max())
    tol = _gauss_tol(n)
    return {
        "n": n,
        "cases": n * n,
        "max_abs_err": worst,
        "tol": tol,
        "passed": worst < tol,
    }


def _cmd_gauss(args):
    if args.verify:
        cols = ["n", "cases", "max_abs_err", "tol", "passed"]
        rows = [_gauss_sweep_row(n) for n in range(1, args.n_max + 1)]
        return cols, rows
    if args.a is None or args.n is None:
        raise DomainError("provide --a and --n (and optionally --b), or use --verify")
    a, b, n = args.a, args.b, args.n
    check_grid_budget(n, 1, args.max_grid)  # the oracle sums over all of Z_n
    val = gauss_general(a, b, n)
    z = val.complex_render
    w = gauss_brute(a, b, n)
    err = abs(z - w)
    cols = [
        "n", "a", "b",
        "closed_re", "closed_im", "brute_re", "brute_im",
        "abs_err", "magnitude_sq", "passed",
    ]
    rows = [{
        "n": n, "a": a, "b": b,
        "closed_re": z.real, "closed_im": z.imag,
        "brute_re": w.real, "brute_im": w.imag,
        "abs_err": err,
        "magnitude_sq": str(val.magnitude_sq),
        "passed": err < _gauss_tol(n),
    }]
    return cols, rows


# ---------------------------------------------------------------------------
# sphere


def _t_values(q: int, args) -> list[int]:
    """--t reduced mod q, deduplicated and sorted; all of Z_q for --all-t or no --t."""
    if args.all_t or not args.t:
        return list(range(q))
    return sorted({t % q for t in args.t})


def _sphere_rows(m, d: int, ts, max_grid: int) -> list[dict]:
    """One row per t: the enumerated count, and for odd q the formula and CRT
    counts with the error term (and its per-prime-power bound for d > 2);
    then the partition row t="all"."""
    q = m.q
    counts = sphere_counts_all(m, d, max_grid)
    factors = ([(pm.q, sphere_counts_all(pm, d, max_grid)) for pm in m.prime_power_moduli()]
               if m.is_odd else [])  # the CRT factors' counts, one call per prime power
    rows = []
    for t in ts:
        enum = int(counts[t])
        row = {"q": q, "d": d, "t": t, "count_enum": enum, "passed": True}
        if m.is_odd:
            spec = sphere_spec(m, d, t)
            rep = sphere_count_formula(spec)
            crt = math.prod(int(c[t % pq]) for pq, c in factors)
            row.update(
                count_formula=rep.exact_count,
                count_crt=crt,
                main_term=rep.main_term,
                ii_re=rep.ii_t,
                ii_abs=abs(rep.ii_t),
                ii_bound=rep.ii_bound,
            )
            row["passed"] = enum == rep.exact_count == crt
            if d > 2:
                bc = sphere_size_bound_check(spec)
                row.update(bound_ratio_max=max(f.ratio for f in bc.factors), bound_ok=bc.ok)
                row["passed"] = row["passed"] and bc.ok
        rows.append(row)
    total = int(counts.sum())
    rows.append({"q": q, "d": d, "t": "all", "count_enum": total, "passed": total == q**d})
    return rows


def _cmd_sphere(args):
    cols = [
        "q", "d", "t",
        "count_enum", "count_formula", "count_crt", "main_term",
        "ii_re", "ii_abs", "ii_bound", "bound_ratio_max", "passed",
    ]
    rows = []
    for q in sorted(set(args.q)):
        m = as_modulus(q)
        for d in sorted(set(args.d)):
            rows += _sphere_rows(m, d, _t_values(q, args), args.max_grid)
    return cols, rows


# ---------------------------------------------------------------------------
# spectrum


def _spectrum_rows(m, d: int, ts, max_grid: int) -> list[dict]:
    """One row per t in ts (_spectrum_row) from one fetch of the formula kernel's
    columns ts and of the q^d class table.  Once the kernel is let go, the rows
    hold the DFT kernel and the norm table, so they share them (fourier._table)."""
    kern = _class_kernel(m, d, "formula", max_grid)
    columns, errors = kern.values[:, ts], kern.error[:, ts].max(axis=0)
    del kern
    held = _kernel(m.q, True), _norms(m.q, d, m.q)  # not read: kept alive for the rows
    counts = sphere_counts_all(m, d, max_grid)
    ids = _class_ids(m.q, d, m.q)
    return [_spectrum_row(sphere_spec(m, d, t), columns[:, i], ids, float(errors[i]),
                          int(counts[t]), max_grid) for i, t in enumerate(ts)]


def _spectrum_row(spec, column, ids, kernel_err: float, size: int, max_grid: int) -> dict:
    """The two spectrum routes compared at one t, and the decay bound for
    d > 2 on the direct spectrum.  The direct route transforms the indicator
    and the formula route spreads the kernel column over the class table
    ids, one after the other; both spectra are freed with the row.

    route_tol is the sum of the two routes' errors: the grid transform of
    the indicator is d passes (_pass_charge) of the absolute sum |S_t| q^-d,
    and the formula spectrum spreads column t of the formula kernel, within
    its largest error[c, t].
    """
    q, d, t = spec.q, spec.d, spec.t_value
    direct = sphere_fourier_direct(spec, max_grid)
    diff = float(np.abs(direct.values - column[ids]).max())
    tol = d * _pass_charge(q) * size / float(q) ** d + kernel_err
    row = {
        "q": q, "d": d, "t": t,
        "max_route_diff": diff, "route_tol": tol,
        "passed": diff < tol,
    }
    if d > 2:
        rep = decay_report(spec, direct)
        row.update(
            max_nonzero_coeff=rep.max_nonzero_coeff,
            decay_bound=rep.bound,
            ratio_to_bound=rep.ratio,
        )
        row["passed"] = row["passed"] and rep.ok
    return row


def _cmd_spectrum(args):
    cols = [
        "q", "d", "t",
        "max_route_diff", "route_tol",
        "max_nonzero_coeff", "decay_bound", "ratio_to_bound", "passed",
    ]
    rows = []
    for q in sorted(set(args.q)):
        m = as_modulus(q)
        m.require_odd("spectrum")
        for d in sorted(set(args.d)):
            rows += _spectrum_rows(m, d, _t_values(q, args), args.max_grid)
    return cols, rows


# ---------------------------------------------------------------------------
# point-set sources shared by nu and certificate


def _add_set_source_args(sub) -> None:
    sub.add_argument("--set-file", help="read the point set from a file")
    sub.add_argument("--random", type=int, metavar="SIZE", help="seeded uniform sample")
    sub.add_argument("--even-weight", action="store_true", help="even-weight set in Z_2^d")
    sub.add_argument("--lattice", nargs=2, type=int, metavar=("P", "ELL"),
                     help="zero-distance lattice in Z_{p^ell}^d")
    sub.add_argument("--q", type=int, help="modulus (with --random)")
    sub.add_argument("--d", type=int, help="dimension (with --random/--even-weight/--lattice)")


def _load_set(args) -> tuple[PointSet, str]:
    if args.set_file:
        return read_pointset(args.set_file), f"file:{os.path.basename(args.set_file)}"
    d = args.d
    if args.random is not None:
        if args.q is None or d is None:
            raise DomainError("--random needs --q and --d")
        q, size, label = args.q, args.random, f"random(size={args.random},seed={args.seed})"
        build = lambda: sample_random_set(q, d, size, args.seed)
    elif args.even_weight:
        if d is None:
            raise DomainError("--even-weight needs --d")
        q, size, label, build = _explicit_set("even-weight", d)
    elif args.lattice:
        if d is None:
            raise DomainError("--lattice needs --d")
        q, size, label, build = _explicit_set("lattice", d, *args.lattice)
    else:
        raise DomainError("no point-set source given (--set-file/--random/--even-weight/--lattice)")
    _check_set_budget(label, size, q, d, args.max_pairs, args.max_grid)
    return build(), label


def _explicit_set(kind: str, d: int, p=None, ell=None):
    """(q, |E|, label, build) of the even-weight set or the zero-distance
    lattice, with its arguments checked and the set not yet built."""
    if kind == "even-weight":
        if d < 1:
            raise DomainError(f"dimension must be >= 1, got {d}")
        return 2, 2 ** (d - 1), "even-weight", lambda: construct_even_weight(d)
    q, size = _lattice_shape(p, ell, d)
    return q, size, f"lattice(p={p},ell={ell})", lambda: construct_zero_distance_lattice(p, ell, d)


def _check_set_budget(label: str, size: int, q: int, d: int, max_pairs: int, max_grid: int) -> None:
    """Pair counts need |E|^2 <= max_pairs and every transform q^d <= max_grid
    (so |E| <= max_grid): refuse a set that no route takes before building it."""
    if size * size > max_pairs:
        try:
            check_grid_budget(q, d, max_grid)
        except BudgetError as exc:
            raise BudgetError(f"{label} of size {size} in Z_{q}^{d} fits neither the pair "
                              f"budget {max_pairs} nor the grid budget: {exc}") from None


def _nu_rows(E: PointSet, label: str, max_grid: int, max_pairs: int) -> list[dict]:
    """One row per t, then the total row t="all".  The exact count
    (nu_histogram) runs for every set; for odd q the direct-kernel sweep
    runs too, checked against the count.  Either is left out when its
    budgets refuse it while the other runs; when both are refused the
    count's BudgetError is raised."""
    q, d = E.q, E.d
    hist = reports = refused = None
    try:
        hist = nu_histogram(E, max_pairs, max_grid)
    except BudgetError as exc:
        refused = exc
    if E.modulus.is_odd:  # reads E's class power when the autocorrelation has run
        try:
            reports = nu_spectral_sweep(E, "direct", max_grid)
        except BudgetError:
            pass
    if hist is None and reports is None:
        raise refused
    rows = []
    for t in range(q):
        row = {"q": q, "d": d, "set": label, "size": E.size, "t": t, "passed": True}
        if hist is not None:
            row["nu_brute"] = int(hist[t])
        if reports is not None:
            rep = reports[t]
            row.update(
                main_term=rep.main_term,
                r_t=rep.r_t,
                r_bound=rep.r_bound,
                nu_spectral=rep.nu,
                certificate=rep.certificate_positive,
                tol=rep.tol,  # not a column: verify-all's nu_decomposition reads it
            )
            if hist is not None:
                row["match"] = rep.nu == int(hist[t])
                row["passed"] = bool(row["match"])
        rows.append(row)
    total = int(hist.sum()) if hist is not None else sum(r.nu for r in reports)
    rows.append({
        "q": q, "d": d, "set": label, "size": E.size, "t": "all",
        "nu_brute": total, "passed": total == E.size**2,
    })
    return rows


def _cmd_nu(args):
    E, label = _load_set(args)
    cols = [
        "q", "d", "set", "size", "t",
        "nu_brute", "main_term", "r_t", "r_bound",
        "nu_spectral", "certificate", "match", "passed",
    ]
    return cols, _nu_rows(E, label, args.max_grid, args.max_pairs)


def _cmd_certificate(args):
    E, label = _load_set(args)
    q, d = E.q, E.d
    thr = theorem_threshold(E.modulus, d, args.C)
    cols = [
        "q", "d", "set", "size", "C", "threshold", "meets_threshold",
        "t", "fired", "nu_brute", "margin", "slack", "sound",
    ]
    rows = []
    for row in certificate_check(E, max_grid=args.max_grid, max_pairs=args.max_pairs):
        rows.append({
            "q": q, "d": d, "set": label, "size": E.size,
            "C": args.C, "threshold": thr.threshold,
            "meets_threshold": E.size >= thr.threshold,
            "t": row.t, "fired": row.fired, "nu_brute": row.nu,
            "margin": row.margin, "slack": row.slack, "sound": row.sound,
        })
    return cols, rows


# ---------------------------------------------------------------------------
# construct


def _construction(kind: str, d, p, ell, max_pairs: int, max_grid: int) -> tuple[PointSet, dict]:
    """The named construction and its row, whose "passed" so far holds the size
    check; a set that fits neither budget is refused before it is built."""
    if kind == "even-weight" and d is None:
        raise DomainError("construct even-weight needs --d")
    if kind == "lattice" and (p is None or ell is None or d is None):
        raise DomainError("construct lattice needs --p, --ell and --d")
    q, expected, label, build = _explicit_set(kind, d, p, ell)
    _check_set_budget(label, expected, q, d, max_pairs, max_grid)
    E = build()
    row = {
        "construction": label, "q": E.q, "d": E.d,
        "size": E.size, "expected_size": expected,
        "passed": E.size == expected,
    }
    return E, row


def _check_distances(E: PointSet, row: dict, max_pairs: int, max_grid: int) -> None:
    """Add Delta(E) to a construction row; it passes only if Delta(E) = {0}."""
    dists = sorted(distance_set(E, max_pairs, max_grid))
    row["distances"] = ";".join(str(t) for t in dists)
    row["passed"] = row["passed"] and dists == [0]


def _cmd_construct(args):
    E, row = _construction(args.kind, args.d, args.p, args.ell, args.max_pairs, args.max_grid)
    if args.out_set:
        write_pointset(E, _resolve_out(args.out_set))
    if args.check:
        _check_distances(E, row, args.max_pairs, args.max_grid)
    cols = ["construction", "q", "d", "size", "expected_size", "distances", "passed"]
    return cols, [row]


# ---------------------------------------------------------------------------
# verify-all: the subcommands' rows mapped onto
# (check, instance, metric, value, bound, tol, ratio, passed)


def _row(check, instance, metric, value, bound=None, tol=None, ratio=None, passed=True) -> dict:
    return {
        "check": check, "instance": instance, "metric": metric,
        "value": value, "bound": bound, "tol": tol, "ratio": ratio,
        "passed": bool(passed),
    }


def _random_grid(q: int, d: int, seed: int) -> GridFunction:
    """q^d values with real and imaginary parts uniform in [-1, 1), from the
    top 53 bits of the splitmix64 stream of `seed` (real parts first)."""
    size = q**d
    u = (_splitmix64(seed, 0, 2 * size) >> np.uint64(11)) * 2.0**-52 - 1
    return GridFunction(q, d, u[:size] + 1j * u[size:])


def _grid_defects(f: GridFunction, g: GridFunction) -> tuple[float, float, float, float]:
    """(round-trip defect, its tol, Plancherel defect, its tol) for two grids,
    each relative to its scale as derived in _verify_fourier."""
    charge = 2 * f.d * _pass_charge(f.q)
    abs_f, abs_g = np.abs(f.values), np.abs(g.values)
    scale = float(abs_f.max())
    rt = float(np.abs(inverse(forward(f)).values - f.values).max()) / scale
    pscale = float(np.mean(abs_f * abs_g))
    pd = plancherel_defect(f, g) / pscale
    return (rt, charge * float(abs_f.sum()) / scale,
            pd, charge * float(abs_f.sum()) * float(abs_g.mean()) / pscale)


def _verify_fourier(q_max: int, seed: int) -> list[dict]:
    """Orthogonality, round trips and Plancherel, each against a tolerance
    derived from the rounding of its length-q passes.

    Each pass is charged fourier._pass_charge, (q + 11) eps of the absolute
    sum of its terms, and |K| = 1 carries absolute sums from pass to pass.

    * orthogonality: one q-term dot of exact counts (absolute sum q^d) with
      the table roots, divided by q^d: (q + 11) eps.
    * round trip, relative to max |f|: forward is d passes with absolute sum
      q^-d sum |f| per coefficient, so the inverse meets errors summing to
      d (q + 11) eps sum |f| and adds d passes over sum_m |F| <= sum |f|:
      2 d (q + 11) eps sum |f| / max |f|.
    * Plancherel, relative to q^-d sum |f| |g|: F and G are d passes each,
      |dF| <= d (q + 11) eps q^-d sum |f| and |G| <= q^-d sum |g|, so
      sum_m |dF| |G| + |F| |dG| <= 2 d (q + 11) eps q^-d sum |f| sum |g|.
      The two q^d-term dots that close the identity are not charged.
    """
    rows = []
    for q in (3, 5, 9, 15):
        if q > q_max:
            continue
        for d in (1, 2, 3):
            defect = orthogonality_max_defect(q, d)
            rows.append(_row(
                "fourier_orthogonality", f"q={q:02d} d={d}", "max_defect",
                defect, tol=_pass_charge(q), passed=defect < _pass_charge(q),
            ))
            for k in range(2):
                f = _random_grid(q, d, seed + 100 * q + 10 * d + k)
                g = _random_grid(q, d, seed + 100 * q + 10 * d + k + 5000)
                rt, rt_tol, pd, pd_tol = _grid_defects(f, g)
                rows.append(_row(
                    "fourier_roundtrip", f"q={q:02d} d={d} grid={k}", "rel_defect",
                    rt, tol=rt_tol, passed=rt < rt_tol,
                ))
                rows.append(_row(
                    "fourier_plancherel", f"q={q:02d} d={d} grid={k}", "rel_defect",
                    pd, tol=pd_tol, passed=pd < pd_tol,
                ))
    return rows


def _nu_sets(q: int, sets_per_q: int, seed: int) -> list[tuple[str, PointSet]]:
    """The labelled point sets in Z_q^3 whose nu(t) verify-all decomposes."""
    d = 3
    named = [
        ("full-grid", sample_random_set(q, d, q**d, seed)),
        ("sphere-t1", PointSet(q, d, sphere_enumerate(sphere_spec(q, d, 1)))),
        ("singleton", PointSet(q, d, [(0,) * d])),
    ]
    if q == 9:
        named.append(("lattice", construct_zero_distance_lattice(3, 2, d)))
    for k in range(sets_per_q):
        size = 2 + (seed + 7 * k + q) % min(120, q**d - 1)
        named.append((f"random-{k}", sample_random_set(q, d, size, seed + 1000 * q + k)))
    return named


def _cmd_verify_all(args):
    cols = ["check", "instance", "metric", "value", "bound", "tol", "ratio", "passed"]
    max_grid, max_pairs = args.max_grid, args.max_pairs
    eps = float(np.finfo(np.float64).eps)
    rows = []
    for n in range(1, args.n_max + 1):
        r = _gauss_sweep_row(n)
        rows.append(_row("gauss_oracle", f"n={n:03d}", "max_abs_err",
                         r["max_abs_err"], tol=r["tol"], passed=r["passed"]))
    rows += _verify_fourier(args.q_max, args.seed)
    for q in (3, 5, 9, 15, 25, 27):
        if q > args.q_max:
            continue
        for d in (3, 4):
            *per_t, total = _sphere_rows(as_modulus(q), d, range(q), max_grid)
            rows.append(_row("sphere_partition", f"q={q:02d} d={d}", "total",
                             total["count_enum"], bound=q**d, passed=total["passed"]))
            for r in per_t:
                inst = f"q={q:02d} d={d} t={r['t']:02d}"
                agree = r["count_enum"] == r["count_formula"] == r["count_crt"]
                rows.append(_row("sphere_count", inst, "count", r["count_enum"], passed=agree))
                rows.append(_row("sphere_error_bound", inst, "ratio_max", r["bound_ratio_max"],
                                 bound=1.0, ratio=r["bound_ratio_max"], passed=r["bound_ok"]))
    for q in (3, 5, 9, 15):
        if q > args.q_max:
            continue
        for r in _spectrum_rows(as_modulus(q), 3, range(q), max_grid):
            inst = f"q={q:02d} d=3 t={r['t']:02d}"
            rows.append(_row("spectrum_two_route", inst, "max_abs_diff", r["max_route_diff"],
                             tol=r["route_tol"], passed=r["max_route_diff"] < r["route_tol"]))
            rows.append(_row("spectrum_decay", inst, "max_nonzero_coeff", r["max_nonzero_coeff"],
                             bound=r["decay_bound"], ratio=r["ratio_to_bound"],
                             passed=r["max_nonzero_coeff"] <= r["decay_bound"]))
    for q in (3, 5, 9):
        if q > args.q_max:
            continue
        for label, E in _nu_sets(q, args.sets_per_q, args.seed):
            *per_t, _ = _nu_rows(E, label, max_grid, max_pairs)
            devs = [abs(r["main_term"] + r["r_t"] - r["nu_brute"]) for r in per_t]
            # the sweep's own tolerance of nu(t), and the rounding of main + r_t
            tols = [r["tol"] + eps * (r["main_term"] + abs(r["r_t"])) for r in per_t]
            mism = sum(not r["match"] for r in per_t)
            violations = sum(r["certificate"] and r["nu_brute"] == 0 for r in per_t)
            inst = f"q={q:02d} d=3 set={label}"
            within = all(dev <= tol for dev, tol in zip(devs, tols))
            rows.append(_row("nu_decomposition", inst, "max_abs_dev", max(devs),
                             tol=max(tols), passed=(mism == 0 and within)))
            rows.append(_row("certificate_soundness", inst, "violations", violations,
                             bound=0, passed=violations == 0))
    constructions = [("construction_even_weight", f"d={d:02d}", "even-weight", d, None, None)
                     for d in range(1, 11)]
    constructions += [("construction_lattice", f"p={p} ell={ell} d=3", "lattice", 3, p, ell)
                      for p, ell in ((3, 2), (3, 3), (5, 2))]
    for check, inst, kind, d, p, ell in constructions:
        E, r = _construction(kind, d, p, ell, max_pairs, max_grid)
        _check_distances(E, r, max_pairs, max_grid)
        rows.append(_row(check, inst, "size", r["size"], bound=r["expected_size"],
                         passed=r["passed"]))
    rows.sort(key=lambda r: (r["check"], r["instance"]))
    return cols, rows


# ---------------------------------------------------------------------------
# parser and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zqdist",
        description="Distance sets, sphere counts and quadratic Gauss sums over Z_q^d.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, pairs=False):
        """The output and grid-budget options, plus --seed and --max-pairs
        for the subcommands that read them."""
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--max-grid", type=int, default=DEFAULT_GRID_BUDGET,
                       help="largest q^d any grid operation may touch")
        if pairs:
            p.add_argument("--max-pairs", type=int, default=DEFAULT_PAIR_BUDGET,
                           help="largest |E|^2 the pair scan may touch")

    g = sub.add_parser("gauss", help="quadratic Gauss sums")
    common(g)
    g.add_argument("--verify", action="store_true", help="sweep all (a, b, n) up to --n-max")
    g.add_argument("--n-max", type=int, default=99)
    g.add_argument("--a", type=int)
    g.add_argument("--b", type=int, default=0)
    g.add_argument("--n", type=int)
    g.set_defaults(func=_cmd_gauss)

    s = sub.add_parser("sphere", help="sphere counts and error bounds")
    common(s)
    s.add_argument("--q", type=int, nargs="+", required=True)
    s.add_argument("--d", type=int, nargs="+", required=True)
    s.add_argument("--t", type=int, nargs="*")
    s.add_argument("--all-t", action="store_true")
    s.set_defaults(func=_cmd_sphere)

    sp = sub.add_parser("spectrum", help="two-route sphere spectra and decay bound")
    common(sp)
    sp.add_argument("--q", type=int, nargs="+", required=True)
    sp.add_argument("--d", type=int, nargs="+", default=[3])
    sp.add_argument("--t", type=int, nargs="*")
    sp.add_argument("--all-t", action="store_true")
    sp.set_defaults(func=_cmd_spectrum)

    n = sub.add_parser("nu", help="pair counts, brute vs spectral")
    common(n, seed=True, pairs=True)
    _add_set_source_args(n)
    n.set_defaults(func=_cmd_nu)

    c = sub.add_parser("certificate", help="positivity certificate sweep")
    common(c, seed=True, pairs=True)
    _add_set_source_args(c)
    c.add_argument("--C", type=float, default=1.0,
                   help="constant in the largeness threshold (reported, never hard-coded)")
    c.set_defaults(func=_cmd_certificate)

    k = sub.add_parser("construct", help="emit explicit zero-distance constructions")
    common(k, pairs=True)
    k.add_argument("kind", choices=("even-weight", "lattice"))
    k.add_argument("--d", type=int)
    k.add_argument("--p", type=int)
    k.add_argument("--ell", type=int)
    k.add_argument("--out-set", help="write the set in point-set file format")
    k.add_argument("--check", action="store_true", help="also verify the distance set")
    k.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify-all", help="run the full property suite")
    common(v, seed=True, pairs=True)
    v.add_argument("--n-max", type=int, default=40, help="Gauss oracle sweep bound")
    v.add_argument("--q-max", type=int, default=27, help="cap on moduli in the sweeps")
    v.add_argument("--sets-per-q", type=int, default=5)
    v.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cols, rows = args.func(args)
    except (DomainError, BudgetError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 1
    _emit(cols, rows, args)
    ok = all(row.get("passed", True) for row in rows)
    return 0 if ok else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
