"""The three workloads: their inputs, their jobs, and each job's output check.

Every job reaches the program through ``sys.modules["xmodlab"]`` at call
time, never through names bound when this module is imported, so the
tracer's patches of the package's bindings are seen by the jobs.

A job's ``run`` is timed; its ``check`` is not.  ``outcome`` answers
``OK``, ``REFUSED`` (the typed refusal the golden file expects) or a
failure text, from what ``run`` returned or raised.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
ROW6_FIXTURE = HERE / "fixtures" / "row6.json"

OK = "ok"
REFUSED = "refused"
PASSED = (OK, REFUSED)

S4_GENS = "(1,2,3,4),(1,2)"
A4_GENS = "(1,2,3),(2,3,4)"
D8_GENS = "(1,2,3,4),(1,3)"
S5_GENS = "(1,2,3,4,5),(1,2)"
S5_SUBGROUPS = ("(1,2,3,4),(1,2)", "(1,2)", "(1,2,3,4,5)")
SAMPLED_BLOCKS = 2000
D8_SQUARES = 8 ** 3 * 8  # |Q|^3 * |M| for identity_xmod(D8)


def xl():
    return sys.modules["xmodlab"]


@dataclass
class Job:
    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any], str]  # of a value returned
    refusal: dict | None = None  # {"error": class name, "limit": bound}


def outcome(job: Job, result) -> str:
    if isinstance(result, Exception):
        want = job.refusal
        if (
            want is not None
            and type(result).__name__ == want["error"]
            and getattr(result, "limit", None) == want["limit"]
        ):
            return REFUSED
        return f"raised {result!r}"
    return job.check(result)


@dataclass
class Workload:
    name: str
    inputs: Callable[[], dict]
    # (group input key, small_group_name answer, match_catalogue answer)
    catalogue_probe: tuple[str, str | None, str | None]
    # job groups: a pass shuffles the groups and keeps each group's order
    groups: Callable[[dict], list[list[Job]]]


def catalogue_call(workload: Workload, inputs: dict) -> list:
    """The first naming call a user of the workload makes."""
    key, _, _ = workload.catalogue_probe
    G = inputs[key]
    return [xl().small_group_name(G), xl().match_catalogue(G)]


def expected_names(workload: Workload) -> list:
    return list(workload.catalogue_probe[1:])


def pass_order(groups: list[list[Job]], rng: random.Random) -> list[Job]:
    groups = list(groups)
    rng.shuffle(groups)
    return [job for group in groups for job in group]


def _group(text: str, degree: int):
    return xl().PermGroup(degree, xl().parse_generator_list(text, degree))


def _subgroup(Q, text: str):
    return Q.subgroup(xl().parse_generator_list(text, Q.degree))


def _failed(what: str, got, want) -> str:
    return f"{what}: got {got!r}, want {want!r}"


# ---------------------------------------------------------------------------
# s4_table: the paper's table through the command line, in process


def table_inputs() -> dict:
    Q = _group(S4_GENS, 4)
    table = sys.modules["xmodlab.induce"].TABLE_SUBGROUPS
    return {"Q": Q, "subgroups": [_subgroup(Q, ",".join(g)) for _, g in table]}


def run_table_cli(_state: dict):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["xmodlab.cli"].main(["table", "--verify", "--json"])
    return code, out.getvalue().encode(), err.getvalue()


def table_check(golden: bytes) -> Callable[[Any], str]:
    def check(result) -> str:
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        if out != golden:
            return "stdout differs from golden/table_verify.json"
        return OK

    return check


def table_groups(state: dict) -> list[list[Job]]:
    golden = (GOLDEN / "table_verify.json").read_bytes()
    return [[Job("table", run_table_cli, table_check(golden))]]


# ---------------------------------------------------------------------------
# s5_induce: three inductions along P <= S5


def s5_inputs() -> dict:
    Q = _group(S5_GENS, 5)
    return {"Q": Q, "P0": _subgroup(Q, S5_SUBGROUPS[0])}


def _induce_in_s5(sub: str):
    def run(_state: dict):
        Q = _group(S5_GENS, 5)
        P = _subgroup(Q, sub)
        return xl().induce(xl().identity_xmod(P), xl().hom(P, Q, P.generators))

    return run


def induce_check(sub: str, want: dict) -> Callable[[Any], str]:
    def check(result) -> str:
        X, report = result
        if "refusal" in want:
            # it used to be refused: accept what passes outside checks
            if not xl().validate(X).ok:
                return "induced module fails validate"
            K, _ = xl().pi2(X)
            if X.M.order() != K.order() * xl().image(X.boundary).order():
                return "|M| != |pi2|*|im d|"
            print(f"note: {sub} now finishes with |M| = {X.M.order()}", file=sys.stderr)
            return OK
        got = [report.induced_order, list(report.pi2_invariants), report.pi1_name]
        if got != want["triple"]:
            return _failed("(|M|, pi2, pi1)", got, want["triple"])
        if not report.order_law_ok:
            return "order law |M| = |pi2| * |normal closure of d(M)| broken"
        return OK

    return check


def s5_groups(state: dict) -> list[list[Job]]:
    golden = json.loads((GOLDEN / "s5_induce.json").read_text())
    return [
        [Job(f"induce {sub}", _induce_in_s5(sub), induce_check(sub, golden[sub]),
             golden[sub].get("refusal"))]
        for sub in S5_SUBGROUPS
    ]


# ---------------------------------------------------------------------------
# squares_calculus: reads and constructions on modules needing no induction


def squares_inputs() -> dict:
    S4 = _group(S4_GENS, 4)
    D8 = _group(D8_GENS, 4)
    text = ROW6_FIXTURE.read_text()
    row6 = xl().xmod_from_json(text)
    return {
        "S4": xl().identity_xmod(S4),
        "A4S4": xl().normal_inclusion_xmod(_subgroup(S4, A4_GENS), S4),
        "D8": xl().identity_xmod(D8),
        "row6": row6,
        "row6_M": row6.M,
        "row6_text": text,
    }


def _is_none(what: str) -> Callable[[Any], str]:
    def check(result) -> str:
        return OK if result is None else f"{what} found a violating block"

    return check


def _square_count_check(result) -> str:
    if result != (D8_SQUARES, D8_SQUARES):
        return _failed("squares (listed, counted)", result, D8_SQUARES)
    return OK


def _materialize(state: dict):
    view = xl().DoubleGroupoidView(state["D8"])
    return len(view.squares()), view.square_count()


def _row6_check(result) -> str:
    got = (result.M.order(), result.Q.order())
    return OK if got == (72, 24) else _failed("(|M|, |Q|)", got, (72, 24))


def _gamma(state: dict):
    state["gamma_row6"] = xl().gamma(xl().DoubleGroupoidView(state["row6"]))
    return state["gamma_row6"]


def _iso_check(result) -> str:
    return OK if result is not None else "gamma(X) is not isomorphic to X"


def squares_groups(state: dict) -> list[list[Job]]:
    def sampled(s: dict):
        return xl().interchange_sampled(s["row6"], SAMPLED_BLOCKS, s["rng"])

    return [
        [Job("interchange_exhaustive S4",
             lambda s: xl().interchange_exhaustive(s["S4"]),
             _is_none("interchange_exhaustive"))],
        [Job("interchange_exhaustive A4<S4",
             lambda s: xl().interchange_exhaustive(s["A4S4"]),
             _is_none("interchange_exhaustive"))],
        [Job("interchange_sampled row6", sampled, _is_none("interchange_sampled"))],
        [Job("materialize D8", _materialize, _square_count_check)],
        [Job("xmod_from_json row6",
             lambda s: xl().xmod_from_json(s["row6_text"]), _row6_check)],
        [
            Job("gamma row6", _gamma, _row6_check),
            Job("xmod_isomorphic gamma(row6) row6",
                lambda s: xl().xmod_isomorphic(s["gamma_row6"], s["row6"]),
                _iso_check),
        ],
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "s4_table",
            table_inputs,
            ("Q", "S4", None),
            table_groups,
        ),
        Workload(
            "s5_induce",
            s5_inputs,
            ("P0", "S4", None),
            s5_groups,
        ),
        Workload(
            "squares_calculus",
            squares_inputs,
            ("row6_M", None, "C3xSL(2,3)"),
            squares_groups,
        ),
    )
}
