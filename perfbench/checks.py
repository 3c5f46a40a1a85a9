"""Correctness checks against references computed in the same run.

Every check returns a list of human-readable problems; an empty list means
the output passed.  The benchmark fails the run (``"correct": false``) on any
problem, and its own tests feed each check a corrupted output to show it
can fail.  Serving answers are checked one by one as they arrive, against a
direct service's answers (``loadgen.drive``); the checks here cross-check
samples of them against numpy.
"""

from __future__ import annotations

import numpy as np

MAX_REPORTED = 5


def _limit(problems: list[str]) -> list[str]:
    if len(problems) <= MAX_REPORTED:
        return problems
    return problems[:MAX_REPORTED] + [f"... and {len(problems) - MAX_REPORTED} more"]


def top_k_rows_match_matrix(
    answers: dict[str, list[tuple[str, float]]],
    matrix: np.ndarray,
    left_index: dict[str, int],
    right_index: dict[str, int],
    k: int,
) -> list[str]:
    """Top-k answers agree with a numpy ranking of the similarity matrix.

    Tie-aware: the returned scores must be the row's ``k`` largest values in
    descending order, and each returned name must carry its true score, but
    which of several tied names fills the last places is free.
    """
    problems = []
    for uri, answer in answers.items():
        row = matrix[left_index[uri]]
        expected = np.sort(row)[::-1][:k]
        names = [name for name, _ in answer]
        values = np.array([value for _, value in answer], dtype=float)
        if len(set(names)) != len(names):
            problems.append(f"top-k of {uri!r} repeats a name")
        elif values.shape != expected.shape or not np.array_equal(values, expected):
            problems.append(f"top-k scores of {uri!r} are not the row's {k} largest")
        elif any(row[right_index[name]] != value for name, value in answer):
            problems.append(f"top-k of {uri!r} pairs a name with another name's score")
    return _limit(problems)


def scores_match_matrix(
    answers: dict[tuple[str, str], float],
    matrix: np.ndarray,
    left_index: dict[str, int],
    right_index: dict[str, int],
) -> list[str]:
    """Pair scores equal the similarity matrix entries."""
    problems = []
    for (left, right), value in answers.items():
        expected = matrix[left_index[left], right_index[right]]
        if value != expected:
            problems.append(f"score of {(left, right)!r} is {value!r}, matrix has {expected!r}")
    return _limit(problems)


def hits_at_1(matrix: np.ndarray, gold_pairs: np.ndarray) -> float:
    """Tie-aware H@1 of ``gold_pairs`` ((n, 2) row/column ids) under ``matrix``."""
    gold_pairs = np.asarray(gold_pairs, dtype=np.int64).reshape(-1, 2)
    rows = matrix[gold_pairs[:, 0]]
    targets = rows[np.arange(len(gold_pairs)), gold_pairs[:, 1]]
    better = np.sum(rows > targets[:, None], axis=1)
    ties = np.sum(rows == targets[:, None], axis=1) - 1
    ranks = better + ties / 2.0 + 1.0
    return int(np.sum(ranks <= 1)) / len(gold_pairs)


def h1_matches_matrix(reported: float, matrix: np.ndarray, gold_pairs: np.ndarray) -> list[str]:
    """The program's entity H@1 equals a numpy recomputation."""
    expected = hits_at_1(matrix, gold_pairs)
    if reported != expected:
        return [f"entity H@1 is {reported!r}, numpy recomputation gives {expected!r}"]
    return []


def batch_is_valid(selected, pool, labelled_before: dict, batch_size: int) -> list[str]:
    """An active batch: ``batch_size`` distinct pool pairs, none labelled before."""
    problems = []
    if len(selected) != batch_size:
        problems.append(f"batch has {len(selected)} pairs, expected {batch_size}")
    if len(set(selected)) != len(selected):
        problems.append("batch selects a pair twice")
    outside = [pair for pair in selected if pair not in pool]
    if outside:
        problems.append(f"{len(outside)} selected pairs are not in the pool")
    relabelled = [
        pair for pair in selected if (pair.left, pair.right) in labelled_before[pair.kind]
    ]
    if relabelled:
        problems.append(f"{len(relabelled)} selected pairs were already labelled")
    return problems


def same_outputs(untraced: dict, traced: dict) -> list[str]:
    """The traced run reproduced every output of the untraced run exactly."""
    return [
        f"output {key!r} differs between the untraced and traced runs"
        for key in sorted(set(untraced) | set(traced))
        if untraced.get(key) != traced.get(key)
    ]
