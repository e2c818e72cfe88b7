"""Shared builders for randomized schedules used by both the unit tests and
the acceptance suite, and slice-based references for the log-tree walks."""

import random
from fractions import Fraction

from sleepy_tob.core import Log
from sleepy_tob.model_checks import ModelParams, beta_tilde
from sleepy_tob.world import Schedule


def sliced_prefixes(log: Log) -> list[Log]:
    """Every prefix of ``log``, shortest first, each built from a slice."""
    return [Log(log.values[:k]) for k in range(len(log) + 1)]


def fields_key(log: Log) -> tuple[tuple[int, int, int], ...]:
    """A log's tie-break order built by hand from its values' fields,
    independent of how ``Log`` and ``Value`` compare."""
    return tuple((v.id, v.proposer, v.view) for v in log.values)


def sliced_common_prefix(logs) -> Log:
    """The longest common prefix of a nonempty collection of logs, compared
    value by value."""
    seqs = [log.values for log in logs]
    shortest = min(seqs, key=len)
    k = 0
    while k < len(shortest) and all(s[k] == shortest[k] for s in seqs):
        k += 1
    return Log(shortest[:k])


def random_bounded_schedule(rng: random.Random) -> Schedule:
    """Random schedule whose churn moves and Byzantine sizing are validated
    against the churn and failure-ratio bounds as it is built."""
    n = rng.randint(6, 24)
    tau = rng.randint(0, 5)
    gamma = Fraction(rng.randint(0, 25), 100)
    beta = Fraction(rng.choice([1, 1, 1, 2]), rng.choice([3, 3, 3, 4]))
    if gamma >= beta:
        gamma = beta - Fraction(1, 100)
    horizon = rng.randint(3, 10)
    bt = beta_tilde(beta, gamma)
    k = 0
    while (k + 1) * (1 - bt) < bt * max(1, (n - k - 1) * 3 // 4) and k < n - 2:
        k += 1
    byz = frozenset(range(n - k, n))
    honest_pool = list(range(n - k))
    awake = [set(rng.sample(honest_pool, max(1, len(honest_pool) * 3 // 4)))]
    for r in range(1, horizon + 1):
        cur = set(awake[-1])
        for p in honest_pool:
            if p not in cur and rng.random() < 0.3:
                cur.add(p)
        if tau > 0 and gamma > 0:
            recent = set().union(*awake[max(0, r - tau):])
            for p in sorted(cur)[: rng.randint(0, 2)]:
                trial = cur - {p}
                if (
                    trial
                    and len(recent - trial) <= gamma * len(recent)
                    and k < bt * (len(trial) + k)
                ):
                    cur = trial
        if not k < bt * (len(cur) + k):
            cur |= set(honest_pool)
        awake.append(cur)
    params = ModelParams(tau=tau, eta=tau, pi=0, gamma=gamma, beta=beta)
    return Schedule(
        n=n,
        horizon=horizon,
        awake_honest=tuple(frozenset(a) for a in awake),
        byzantine=tuple([byz] * (horizon + 1)),
        r_a=None,
        params=params,
    )
