"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the underlying
math, without importing any package internals, so that agreement between the
two routes is meaningful. Scalar loops and pure-Python floats only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass


# ---------------------------------------------------------------------------
# scalar AdamW recursion (one weight per call, pure float)
# ---------------------------------------------------------------------------


@dataclass
class ScalarAdamW:
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def step(self, w: float, m: float, v: float, g: float,
             t: int) -> tuple[float, float, float]:
        """One update with bias correction at step count t (1-based)."""
        m = self.beta1 * m + (1.0 - self.beta1) * g
        v = self.beta2 * v + (1.0 - self.beta2) * g * g
        m_hat = m / (1.0 - self.beta1 ** t)
        v_hat = v / (1.0 - self.beta2 ** t)
        w = w - self.lr * (m_hat / (math.sqrt(v_hat) + self.eps)
                           + self.weight_decay * w)
        return w, m, v


# ---------------------------------------------------------------------------
# atomicity probabilities by brute-force enumeration
# ---------------------------------------------------------------------------


def enumerate_binary(q: float, n: int) -> tuple[float, float, float]:
    """(pr_top, pr_bottom_all, pr_mixed) over all 2^n outcome vectors."""
    pr_top = pr_bot = pr_mix = 0.0
    for combo in itertools.product((True, False), repeat=n):
        p = 1.0
        for advanced in combo:
            p *= q if advanced else (1.0 - q)
        if all(combo):
            pr_top += p
        elif not any(combo):
            pr_bot += p
        else:
            pr_mix += p
    return pr_top, pr_bot, pr_mix


def enumerate_ternary(q: float, p: float, n: int) -> tuple[float, float, float]:
    """(pr_top, pr_bottom_all, pr_mixed) over all 3^n vectors.

    Symbols per component: advanced (prob q), stale (prob p), stuck
    (prob 1-q-p). Any stuck component makes the vector mixed.
    """
    r = 1.0 - q - p
    pr_top = pr_bot = pr_mix = 0.0
    for combo in itertools.product(("e", "prior", "bottom"), repeat=n):
        w = 1.0
        for sym in combo:
            w *= {"e": q, "prior": p, "bottom": r}[sym]
        if all(s == "e" for s in combo):
            pr_top += w
        elif all(s == "prior" for s in combo):
            pr_bot += w
        else:
            pr_mix += w
    return pr_top, pr_bot, pr_mix


# ---------------------------------------------------------------------------
# retry loop expectations, exact truncated recursion
# ---------------------------------------------------------------------------


def retry_failure_prob(p0: float, alpha: float, k: int) -> float:
    return min(1.0, p0 * alpha ** (k - 1))


def expected_attempts_truncated(p0: float, alpha: float,
                                max_attempts: int) -> float:
    """E[attempts consumed] when the loop stops at success or max_attempts."""
    expect = 0.0
    alive = 1.0
    for k in range(1, max_attempts + 1):
        p_fail = retry_failure_prob(p0, alpha, k)
        if k == max_attempts:
            expect += alive * k
        else:
            expect += alive * (1.0 - p_fail) * k
            alive *= p_fail
    return expect


def success_prob_truncated(p0: float, alpha: float, max_attempts: int) -> float:
    alive = 1.0
    for k in range(1, max_attempts + 1):
        alive *= retry_failure_prob(p0, alpha, k)
    return 1.0 - alive


def retry_loop(p0: float, alpha: float, max_attempts: int, n: int,
               rng) -> tuple[int, bool, float]:
    """(attempts, succeeded, total load) of one retry run, attempt by attempt.

    Recomputes the load term and the failure probability on every attempt;
    an attempt draws one uniform per component and fails at the first
    component that fails.
    """
    load = 0.0
    for k in range(1, max_attempts + 1):
        load += alpha ** (k - 1)
        p = retry_failure_prob(p0, alpha, k)
        if all(rng.random() >= p for _ in range(n)):
            return k, True, load
    return max_attempts, False, load


def geometric_mean_attempts(p0: float, n: int) -> float:
    """Mean of a geometric with per-attempt success (1-p0)^n, untruncated."""
    return 1.0 / (1.0 - p0) ** n
