"""Per-layer tracing of sleepy_tob from outside the package.

``Tracer.install()`` replaces public functions of ``core``, ``ga``, ``tob``,
``world``, ``model_checks``, ``oracle`` and ``cli`` with wrappers that record
one span per call, ``[name, parent index, start, end]``, plus exact counters
at the same boundaries.  A name is patched where it is looked up: ``cli``
imports ``generate_schedule``, ``check_all`` and the oracle checks by name,
and ``world`` imports ``grade``, ``merge_latest``, ``latest_unexpired`` and
the step functions by name, so patching only their home module would leave
their time inside the caller.  ``Tracer.restore()`` puts every original back.

Spans are kept in memory with their parent for one program run and folded
into per-layer totals by ``Tracer.end_run()``.  A layer's self time is the
duration of its spans minus the part covered by their child spans.  Work the
tracer itself does after a call (counting bytes, queue depths) runs inside a
``bench.hook`` span, so it is charged to no layer.  A patch point or count
that no longer fits the program (after a refactor, say) becomes a warning; it
does not stop the run, but the traced run counts it as a problem and reports
itself incorrect, so a layer that reads 0 for that reason is not taken for a
gain.
"""

from __future__ import annotations

import time
from collections import Counter

from sleepy_tob import cli, ga, model_checks, oracle, tob, world

HOOK = "bench.hook"

#: Prefix-algebra functions counted (not timed) where oracle and tob call them.
PREFIX_OPS = [
    (oracle, "is_prefix"),
    (oracle, "compatible"),
    (oracle, "conflicts"),
    (tob, "compatible"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.current = -1
        self.run_counts: Counter = Counter()
        self.run_max: dict[str, int] = {}
        self.self_s: Counter = Counter()
        self.totals: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.root_s = 0.0
        self.warnings: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def _patch_points(self) -> list[tuple[object, str, str, object]]:
        """(owner, attribute, span name, post hook) for every timed call."""
        return [
            (cli, "cmd_run", "cli.cmd_run", None),
            (cli, "run_scenario", "cli.run_scenario", None),
            (cli, "trace_lines", "cli.trace_lines", self._count_trace_bytes),
            (cli, "record_to_json", "cli.record_to_json", None),
            (cli, "generate_schedule", "world.generate_schedule", self._count_schedule),
            (cli, "check_all", "model_checks.check_all", None),
            # looked up by world.generate_schedule through the module
            (model_checks, "check_all", "model_checks.check_all", None),
            (cli, "check_safety_after", "oracle.check_safety_after", None),
            (cli, "check_liveness_after", "oracle.check_liveness_after", None),
            (cli, "check_async_resilience", "oracle.check_async_resilience", None),
            (cli, "check_healing", "oracle.check_healing", None),
            # looked up by oracle.check_healing and oracle.trace_ga_reports
            (oracle, "check_safety_after", "oracle.check_safety_after", None),
            (oracle, "check_liveness_after", "oracle.check_liveness_after", None),
            (oracle, "check_ga_properties", "oracle.check_ga_properties", None),
            (world.World, "step_round", "world.step_round", self._count_pending),
            (world, "step_round1", "tob.step_round1", None),
            (world, "step_round2", "tob.step_round2", None),
            (world, "latest_unexpired", "tob.latest_unexpired", self._count_latest),
            (world, "merge_latest", "ga.merge_latest", None),
            (world, "grade", "ga.grade", None),
            (ga, "tally", "ga.tally", self._count_tally),
            (tob.ProcessState, "absorb", "tob.absorb", None),
        ]

    def _set(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for owner, attr, name, post in self._patch_points():
            if not hasattr(owner, attr):
                self.warnings.add(f"no {owner.__name__}.{attr} to patch")
                continue
            self._set(owner, attr, self._span(name, getattr(owner, attr), post))
        for owner, attr in PREFIX_OPS:
            if not hasattr(owner, attr):
                self.warnings.add(f"no {owner.__name__}.{attr} to patch")
                continue
            self._set(owner, attr, self._counted("core.prefix_ops.calls", getattr(owner, attr)))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner}.{attr}")

    def _span(self, name: str, fn, post):
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.current
            span = [name, parent, clock(), 0.0]
            tracer.current = len(spans)
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                tracer.current = parent
            if post is not None:
                hook = [HOOK, parent, clock(), 0.0]
                spans.append(hook)
                try:
                    post(args, result)
                except Exception as exc:  # a count that no longer fits is reported, not fatal
                    tracer.warnings.add(f"{name}: count failed: {exc!r}")
                hook[3] = clock()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.run_counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- post hooks: exact work counts ------------------------------------

    def _max(self, key: str, value: int) -> None:
        if value > self.run_max.get(key, -1):
            self.run_max[key] = value

    def _count_tally(self, args, result) -> None:
        msgs = args[0]
        if not isinstance(msgs, (list, tuple, set, frozenset)):
            raise TypeError("ga.tally was given a one-shot iterable, so its votes were not counted")
        for m in msgs:
            self.run_counts["ga.tally.prefix_updates"] += len(m.log) + 1
            self._max("core.log_len.max", len(m.log))

    def _count_latest(self, args, result) -> None:
        initial, current = result
        self.run_counts["tob.latest_unexpired.votes"] += len(initial.messages) + len(current)

    def _count_pending(self, args, result) -> None:
        world_ = args[0]
        self._max("world.pending.max", max((len(q) for q in world_.pending.values()), default=0))

    def _count_schedule(self, args, result) -> None:
        self.run_counts["world.generate_schedule.returned"] += 1

    def _count_trace_bytes(self, args, lines) -> None:
        for line in lines[1:]:
            at = line.index('"kind": "') + 9
            kind = line[at : line.index('"', at)]
            self.run_counts[f"cli.trace_bytes.{kind}"] += len(line.encode()) + 1

    # -- folding ----------------------------------------------------------

    def end_run(self) -> dict[str, int]:
        """Fold this run's spans into the totals; return its exact counts."""
        spans = self.spans
        counts = Counter(self.run_counts)
        for name, parent, start, end in spans:
            d = end - start
            self.self_s[name] += d
            counts[f"{name}.calls"] += 1
            if parent < 0:
                self.root_s += d
                continue
            pname = spans[parent][0]
            self.self_s[pname] -= d
            if name == "model_checks.check_all" and pname == "world.generate_schedule":
                counts["model_checks.check_all.in_generate"] += 1
        del counts[f"{HOOK}.calls"]
        spans.clear()
        self.current = -1
        self.totals.update(counts)
        for key, value in self.run_max.items():
            self.maxima[key] = max(self.maxima.get(key, 0), value)
            counts[key] = value
        self.run_counts.clear()
        self.run_max.clear()
        return dict(counts)
