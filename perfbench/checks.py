"""Output checks. Each one rests on a property of the method or on a value
recomputed here, never on a stored copy of an earlier output. Every check
returns a list of failure messages; an empty list means it passed."""

from __future__ import annotations

import csv
import math

TOL = 1e-9
# columns of the exported CSVs that hold names rather than numbers
TEXT_COLUMNS = {"label", "dispatched", "oracle", "feature", "attribute"}


def own_ndcg(ranked, holdout: dict, p: int = 10) -> float:
    """nDCG@p with gain (2^rel - 1) / log2(i + 1) over positions i = 1..p,
    rel = the held-out rating (graded gain)."""
    def dcg(rels):
        return sum((2.0 ** r - 1.0) / math.log2(i + 1)
                   for i, r in enumerate(rels, start=1))
    ideal = dcg(sorted(holdout.values(), reverse=True)[:p])
    if ideal == 0.0:
        return 0.0
    return dcg([holdout.get(it, 0.0) for it in list(ranked)[:p]]) / ideal


def finite_numbers(obj, where: str = "report") -> list:
    """Every number anywhere in a nested dict/list structure is finite."""
    if isinstance(obj, bool):
        return []
    if isinstance(obj, (int, float)):
        return [] if math.isfinite(obj) else [f"{where}: non-finite value {obj!r}"]
    if isinstance(obj, dict):
        return [e for k, v in obj.items() for e in finite_numbers(v, f"{where}.{k}")]
    if isinstance(obj, (list, tuple)):
        return [e for i, v in enumerate(obj) for e in finite_numbers(v, f"{where}[{i}]")]
    return []


def oracle_dominance(rows: dict, candidate_names) -> list:
    """`Opt. hybrid` nDCG is at least every candidate's and `Hybrid`'s."""
    opt = rows["Opt. hybrid"]["nDCG"]
    return [f"Opt. hybrid nDCG {opt!r} < {name} nDCG {rows[name]['nDCG']!r}"
            for name in list(candidate_names) + ["Hybrid"]
            if rows[name]["nDCG"] > opt + TOL]


def hybrid_row(rows: dict, per_user: list, columns) -> list:
    """The `Hybrid` row is the mean over users of each user's
    dispatched-candidate columns."""
    errors = []
    if not per_user:
        return ["no per-user rows"]
    for col in columns:
        vals = [float(u[f"{u['dispatched']}:{col}"]) for u in per_user]
        mean = sum(vals) / len(vals)
        if not math.isclose(rows["Hybrid"][col], mean, rel_tol=TOL, abs_tol=TOL):
            errors.append(f"Hybrid {col} {rows['Hybrid'][col]!r} != "
                          f"recomputed mean {mean!r}")
    return errors


def report_counts(report: dict, n_train_users: int) -> list:
    """Confusion counts sum to the evaluated users; the label distribution
    sums to training users minus skipped ones."""
    errors = []
    confusion = sum(c for row in report["confusion"].values() for c in row.values())
    if confusion != report["n_evaluated_users"]:
        errors.append(f"confusion sums to {confusion}, "
                      f"{report['n_evaluated_users']} users evaluated")
    labels = sum(report["label_distribution"].values())
    expected = n_train_users - report["skipped_label_users"]
    if labels != expected:
        errors.append(f"label distribution sums to {labels}, expected {expected}")
    return errors


def topn_list(ranked, exclude, catalog, n: int, where: str) -> list:
    """n distinct catalog items, none of them excluded."""
    errors = []
    if len(ranked) != n:
        errors.append(f"{where}: {len(ranked)} items, expected {n}")
    if len(set(ranked)) != len(ranked):
        errors.append(f"{where}: repeated item in {ranked}")
    bad = [i for i in ranked if i in exclude]
    if bad:
        errors.append(f"{where}: excluded items {bad}")
    unknown = [i for i in ranked if i not in catalog]
    if unknown:
        errors.append(f"{where}: items outside the catalog {unknown}")
    return errors


def brute_force_topn(model, user, catalog, exclude, n: int) -> list:
    """Top-n by a full sort of predict_rating, ties toward the smaller id."""
    scored = sorted((-model.predict_rating(user, iid), iid)
                    for iid in catalog if iid not in exclude)
    return [iid for _, iid in scored[:n]]


def topn_matches_brute_force(model, user, catalog, exclude, n: int) -> list:
    where = f"{model.spec.algorithm} user {user}"
    ranked = model.recommend_top_n(user, n, exclude=exclude)
    errors = topn_list(ranked, exclude, catalog, n, where)
    expected = brute_force_topn(model, user, catalog, exclude, n)
    if list(ranked) != expected:
        errors.append(f"{where}: Top-{n} {list(ranked)} != brute force {expected}")
    return errors


def ratings_in_range(values, where: str) -> list:
    bad = [v for v in values if not (math.isfinite(v) and 1.0 <= v <= 5.0)]
    return [f"{where}: {len(bad)} predictions outside [1, 5], e.g. {bad[0]!r}"] if bad else []


def csv_readback(path) -> list:
    """Parse an exported CSV as a reader would: every cell outside the
    name columns must be a finite number. A blank line starts a new
    section whose first line is a header."""
    errors = []
    header = None
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                header = None
                continue
            if header is None:
                header = row
                continue
            for col, cell in zip(header, row):
                if col in TEXT_COLUMNS:
                    continue
                try:
                    ok = math.isfinite(float(cell))
                except ValueError:
                    ok = False
                if not ok:
                    errors.append(f"{path}:{lineno} column {col}: {cell!r}")
    if errors:
        return [f"{len(errors)} unreadable cells, first {errors[0]}"]
    return []
