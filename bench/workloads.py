"""The three workloads: set-up, blocks of operations, and the checks.

A round runs every block of a workload once; every run performs whole
rounds, and every round replays the same inputs, so the failed share is the
same in every run.  A block holds at least 40 operations, so its tail
percentile exists.  Each operation is timed by the reference clock and its
output is checked afterwards, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import gen
import oracle


@dataclass
class Outcome:
    """What the operations of a block produced."""

    raw: list[float] = field(default_factory=list)  # wall seconds
    index: list[int] = field(default_factory=list)  # operation index in the clock
    times: list[float] = field(default_factory=list)  # reference seconds, see finish
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    report_bytes: int = 0

    def finish(self, clock) -> None:
        """Convert the raw times once the clock has its later kernel runs."""
        self.times = [clock.reference(i, r) for i, r in zip(self.index, self.raw)]


def _run_op(clock, outcome: Outcome, fn, *args):
    outcome.attempted += 1
    result, raw, index = clock.time(fn, *args)
    outcome.raw.append(raw)
    outcome.index.append(index)
    return result


# ---------------------------------------------------------------------------
# k0-scale: the `graphk0 k0 --json` path on mid-size row-finite graphs


class K0Scale:
    name = "k0-scale"

    def build(self, api, seed: int, workdir: str):
        specs = gen.k0_scale_inputs(seed)
        return [(spec, api.textio.parse_graph(spec.text, spec.name).graph) for spec in specs]

    def check_setup(self, api, state) -> list[str]:
        return []

    def blocks(self, state) -> list:
        return [state]

    def run_block(self, api, state, clock, outcome: Outcome) -> None:
        def op(g):
            return api.reports.emit_json(api.reports.k0_to_json(api.ktheory.compute_k0(g)))

        for spec, g in state:
            try:
                text = _run_op(clock, outcome, op, g)
            except Exception as err:  # an operation that raises is failed
                outcome.failed += 1
                outcome.problems.append(f"{spec.name}: raised {err!r}")
                continue
            outcome.report_bytes += len(text.encode())
            problems = oracle.check_k0(spec, json.loads(text))
            if problems:
                outcome.failed += 1
                outcome.problems += problems


# ---------------------------------------------------------------------------
# membership: library sessions of cone_membership queries at a fixed budget


@dataclass
class MemberSession:
    session: gen.Session
    graph: object
    k0: object = None  # the presentation; rebuilt for every round
    group: oracle.Group | None = None


class Membership:
    name = "membership"

    def build(self, api, seed: int, workdir: str):
        """Blocks of MEMBER_BLOCK sessions, each closed by the named fault."""
        sessions = gen.membership_inputs(seed)
        state = []
        for start in range(0, len(sessions), gen.MEMBER_BLOCK):
            fault = gen.Session(spec=gen.NAMED_FAULT_GRAPH, functional={}, queries=(gen.NAMED_FAULT_QUERY,))
            block = []
            for s in sessions[start : start + gen.MEMBER_BLOCK] + [fault]:
                g = api.textio.parse_graph(s.spec.text, s.spec.name).graph
                block.append(MemberSession(session=s, graph=g, k0=api.ktheory.compute_k0(g)))
            state.append(block)
        return state

    def check_setup(self, api, state) -> list[str]:
        """The class tables the witness checks rely on are checked once."""
        problems = []
        for ms in (ms for block in state for ms in block):
            report = api.reports.k0_to_json(ms.k0)
            problems += oracle.check_k0(ms.session.spec, report)
            ms.group = oracle.Group(report)
        return problems

    def blocks(self, state) -> list:
        return state

    def run_block(self, api, state, clock, outcome: Outcome) -> None:
        budget = gen.MEMBER_BUDGET
        reports = api.reports

        def op(k, x):
            return reports.emit_json(reports.membership_to_json(api.ktheory.cone_membership(k, x, budget)))

        for ms in state:
            if ms.k0 is None:  # fresh presentation, so no verdict is cached
                ms.k0 = api.ktheory.compute_k0(ms.graph)
            k = ms.k0
            spec = ms.session.spec
            pos = {v: i for i, v in enumerate(spec.vertices)}
            for q in ms.session.queries:
                x = k.coker.project([q.vector[pos[v]] for v in k.ambient_order])
                try:
                    text = _run_op(clock, outcome, op, k, x)
                except Exception as err:
                    outcome.failed += 1
                    outcome.problems.append(f"{spec.name}: raised {err!r}")
                    continue
                outcome.report_bytes += len(text.encode())
                decided, problems = oracle.check_membership(
                    spec, ms.group, ms.session.functional, q.kind, q.vector, json.loads(text)
                )
                if problems:
                    outcome.problems += [f"{spec.name} {q.kind}: {p}" for p in problems]
                if problems or not decided:
                    outcome.failed += 1
            ms.k0 = None


# ---------------------------------------------------------------------------
# structure: `graphk0 predicates --json` and `graphk0 traces --extremes --json`


class Structure:
    name = "structure"

    def build(self, api, seed: int, workdir: str):
        state = []
        for spec in gen.structure_inputs(seed):
            path = os.path.join(workdir, spec.name + ".graph")
            with open(path, "w") as handle:
                handle.write(spec.text)
            state.append((spec, path))
        return state

    def check_setup(self, api, state) -> list[str]:
        return []

    def blocks(self, state) -> list:
        return [state[i : i + gen.STRUCT_BLOCK] for i in range(0, len(state), gen.STRUCT_BLOCK)]

    def run_block(self, api, state, clock, outcome: Outcome) -> None:
        # one operation runs both commands on one graph: timed apart, the
        # cheap predicates calls and the dearer traces calls split the
        # operations in two halves, and the median fell in the gap
        def op(path):
            outputs = []
            for argv in (["predicates", path, "--json"], ["traces", path, "--extremes", "--json"]):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = api.cli.run(argv)
                outputs.append((argv[0], code, buf.getvalue()))
            return outputs

        for spec, path in state:
            try:
                outputs = _run_op(clock, outcome, op, path)
                problems = []
                for (command, code, text), check in zip(
                    outputs, (oracle.check_predicates, oracle.check_traces)
                ):
                    outcome.report_bytes += len(text.rstrip("\n").encode())
                    found = [f"exit code {code}"] if code else check(spec, json.loads(text))
                    problems += [f"{spec.name} {command}: {p}" for p in found]
            except Exception as err:
                outcome.failed += 1
                outcome.problems.append(f"{spec.name}: raised {err!r}")
                continue
            if problems:
                outcome.failed += 1
                outcome.problems += problems


WORKLOADS = {w.name: w for w in (K0Scale(), Membership(), Structure())}
