"""Command line interface: factorization, middle-map construction, lifting,
tower building, pre-morphism merging, structure checks and the property
suite.

Exit codes: 0 success, 1 verification failure, 2 search or budget
exhausted, 3 parse error or a file that cannot be read or written.

Each command imports the construction modules it runs, so a call loads
only those, serialize, base and poset.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import serialize
from .base import CLASSES
from .poset import is_directed_poset
from .serialize import ParseError, dumps

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_EXHAUSTED = 2
EXIT_PARSE = 3


def _load(path: str) -> dict:
    # JSON text is UTF-8, whatever the locale says
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ParseError("file not found", path)
    except OSError as exc:
        raise ParseError(f"cannot read the file: {exc.strerror}", path)
    except UnicodeDecodeError:
        raise ParseError("not UTF-8 text", path)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}", path)
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", path)


def _emit(payload: dict, output: str | None, fmt: str) -> None:
    if fmt == "json":
        text = dumps(payload)
    else:
        # the text form carries the version line that dumps adds to JSON
        payload = {"schema_version": serialize.SCHEMA_VERSION, **payload}
        lines = []

        # an empty list or dict is a value of its own, printed as [] or {}
        def render(prefix: str, value) -> None:
            if isinstance(value, dict) and value:
                for key in sorted(value):
                    render(f"{prefix}{key}.", value[key])
            elif isinstance(value, list) and value:
                for i, item in enumerate(value):
                    render(f"{prefix}{i}.", item)
            else:
                lines.append(f"{prefix[:-1]}: {value}")

        render("", payload)
        text = "\n".join(lines) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            _fail(f"{output}: cannot write the file: {exc.strerror}", EXIT_PARSE)
    else:
        click.echo(text, nl=False)


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _element_cap() -> int:
    """PROFACT_ELEMENT_CAP, a positive integer, or the default cap."""
    from .cofinalize import ELEMENT_CAP
    raw = os.environ.get("PROFACT_ELEMENT_CAP")
    if raw is None:
        return ELEMENT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        _fail(f"PROFACT_ELEMENT_CAP must be a positive integer, got {raw!r}", EXIT_PARSE)
    return cap


fmt_option = click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
out_option = click.option("-o", "--output", default=None, help="Write the report to a file.")


# the one place a library or usage error becomes an exit code, with its
# message as the error line.  Errors are named, not imported, since a
# command loads only its own modules; no error here subclasses another.
# A usage error is malformed input, not the code 2 that click gives it
_EXIT_CODES: dict[str, int] = {
    "click.exceptions.UsageError": EXIT_PARSE,
    "profact.serialize.ParseError": EXIT_PARSE,
    "profact.cofinalize.BudgetExceeded": EXIT_EXHAUSTED,
    "profact.procalc.TruncationExhausted": EXIT_EXHAUSTED,
    "profact.factorize.FactorizeError": EXIT_VERIFICATION,
    "profact.lifting.LiftingError": EXIT_VERIFICATION,
    "profact.cofinalize.CofinalizeError": EXIT_VERIFICATION,
    "profact.procalc.ProCalcError": EXIT_VERIFICATION,
}


def _exit_code(exc: BaseException) -> int | None:
    """The code of the first class of exc in _EXIT_CODES, or None."""
    for kind in type(exc).__mro__:
        code = _EXIT_CODES.get(f"{kind.__module__}.{kind.__qualname__}")
        if code is not None:
            return code
    return None


class _Commands(click.Group):
    """The command group: a usage error, or a command that raises an error
    in _EXIT_CODES, ends with that error's line and code."""

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        # the group's own arguments are parsed before invoke, outside it
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:
            _fail(exc.format_message(), _exit_code(exc))

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except Exception as exc:
            code = _exit_code(exc)
            if code is None:
                raise
            # a click error's full message names the option or argument
            _fail(exc.format_message() if isinstance(exc, click.ClickException) else str(exc), code)


@click.group(cls=_Commands)
def main() -> None:
    """Reedy factorizations over finite posets and their pro-level calculus."""


@main.command("reedy")
@click.argument("input_path")
@out_option
@fmt_option
def reedy_cmd(input_path: str, output: str | None, fmt: str) -> None:
    """Factor a transformation into levelwise-injective then special-surjective."""
    nt = serialize.nattrans_from_json(_load(input_path), input_path)
    from .factorize import reedy
    rf = reedy(nt)
    _emit(serialize.reedy_to_json(rf), output, fmt)
    sys.exit(EXIT_OK if all(rf.report.values()) else EXIT_VERIFICATION)


@main.command("chi")
@click.option("-f", "--source-arrow", "f_path", required=True)
@click.option("-t", "--target-arrow", "t_path", required=True)
@click.option("-p", "--pre-morphism", "pm_path", required=True)
@out_option
@fmt_option
def chi_cmd(f_path: str, t_path: str, pm_path: str, output: str | None, fmt: str) -> None:
    """Build the middle map induced by an arrow-level pre-morphism."""
    f = serialize.nattrans_from_json(_load(f_path), f_path)
    t = serialize.nattrans_from_json(_load(t_path), t_path)
    pm = serialize.arrow_pre_morphism_from_json(_load(pm_path), f, t, pm_path)
    from .factorize import chi_construct, reedy, verify_chi
    rf_f, rf_t = reedy(f), reedy(t)
    chim = chi_construct(pm, rf_f, rf_t)
    verification = verify_chi(chim, pm, rf_f, rf_t)
    _emit(serialize.chi_to_json(chim, verification), output, fmt)
    sys.exit(EXIT_OK if all(verification.values()) else EXIT_VERIFICATION)


@main.command("lift")
@click.argument("input_path")
@out_option
@fmt_option
def lift_cmd(input_path: str, output: str | None, fmt: str) -> None:
    """Solve a lifting problem against a special surjective transformation."""
    problem = serialize.lifting_problem_from_json(_load(input_path), input_path)
    from .lifting import lift_against_special
    cone = lift_against_special(problem)
    verification = cone.verify(problem)
    _emit(serialize.cone_lift_to_json(cone, verification), output, fmt)
    sys.exit(EXIT_OK if all(verification.values()) else EXIT_VERIFICATION)


@main.command("cofinalize")
@click.argument("input_path")
@click.option("--levels", default=2, show_default=True)
@click.option("--reysha-cap", default=3, show_default=True)
@out_option
@fmt_option
def cofinalize_cmd(input_path: str, levels: int, reysha_cap: int, output: str | None, fmt: str) -> None:
    """Build the level tower over a directed category and verify it."""
    # checked here rather than by click.IntRange, so the line says what the option must be
    for option, value in (("--levels", levels), ("--reysha-cap", reysha_cap)):
        if value < 0:
            _fail(f"{option} must be a non-negative integer, got {value}", EXIT_PARSE)
    element_cap = _element_cap()
    cat = serialize.category_from_json(_load(input_path), input_path)
    from .cofinalize import build_tower, check_cofinality, check_tower_directedness
    tower = build_tower(cat, levels=levels, reysha_cap=reysha_cap, element_cap=element_cap)
    directed = check_tower_directedness(tower)
    reports = check_cofinality(tower)
    verification = tower.verify()
    _emit(serialize.tower_to_json(tower, verification, reports, directed), output, fmt)
    ok = all(verification.values()) and all(r.nonempty for r in reports)
    sys.exit(EXIT_OK if ok else EXIT_VERIFICATION)


@main.command("merge")
@click.option("-F", "--source-tower", "f_path", required=True)
@click.option("-G", "--target-tower", "g_path", required=True)
@click.option("-p", "--first", "p_path", required=True)
@click.option("-q", "--second", "q_path", required=True)
@out_option
@fmt_option
def merge_cmd(f_path: str, g_path: str, p_path: str, q_path: str, output: str | None, fmt: str) -> None:
    """Merge two pre-morphisms presenting the same map into a common bound."""
    F = serialize.pro_object_from_json(_load(f_path), f_path)
    G = serialize.pro_object_from_json(_load(g_path), g_path)
    p = serialize.pre_morphism_from_json(_load(p_path), F, G, p_path)
    q = serialize.pre_morphism_from_json(_load(q_path), F, G, q_path)
    from .factorize import check_pre_morphism
    from .procalc import dominate, pm_leq
    for pm in (p, q):
        check_pre_morphism(pm.alpha, [("tower", F.diagram, G.diagram, pm.phi)])
    r = dominate(F, G, p, q)
    payload = {
        "result": serialize.pre_morphism_to_json(r),
        "report": {
            "dominates_first": pm_leq(F, p, r),
            "dominates_second": pm_leq(F, q, r),
        },
    }
    _emit(payload, output, fmt)
    sys.exit(EXIT_OK if all(payload["report"].values()) else EXIT_VERIFICATION)


@main.command("check")
@click.argument(
    "what",
    type=click.Choice(
        ["directed-category", "directed-poset", "levelwise", "special", "pm-valid", "pm-leq"]
    ),
)
@click.argument("input_path")
@click.option("--cls", type=click.Choice(list(CLASSES)), default=None, help="Morphism class for levelwise/special checks.")
@click.option("-F", "--source-tower", "f_path", default=None)
@click.option("-G", "--target-tower", "g_path", default=None)
@click.option("-q", "--second", "q_path", default=None, help="Second pre-morphism for pm-leq.")
@out_option
@fmt_option
def check_cmd(
    what: str,
    input_path: str,
    cls: str | None,
    f_path: str | None,
    g_path: str | None,
    q_path: str | None,
    output: str | None,
    fmt: str,
) -> None:
    """Report a structural verdict; queries exit 0 whatever the verdict,
    but pm-leq first checks both pre-morphisms as merge does (exit 1)."""
    if what == "directed-category":
        cat = serialize.category_from_json(_load(input_path), input_path)
        from .category import is_directed_category
        directed, witness = is_directed_category(cat)
        payload = {"directed": directed}
        if witness is not None:
            payload["witness"] = {"axiom": witness.axiom, "detail": list(witness.detail)}
    elif what == "directed-poset":
        poset = serialize.poset_from_json(_load(input_path), input_path)
        payload = {"directed": is_directed_poset(poset)}
    elif what in ("levelwise", "special"):
        nt = serialize.nattrans_from_json(_load(input_path), input_path)
        from .diagrams import is_levelwise, is_special
        chosen = cls or ("N" if what == "levelwise" else "M")
        verdict = is_levelwise(nt, chosen) if what == "levelwise" else is_special(nt, chosen)
        payload = {what: verdict, "class": chosen}
    else:
        if not f_path or not g_path:
            _fail(f"{what} requires -F and -G tower files", EXIT_PARSE)
        F = serialize.pro_object_from_json(_load(f_path), f_path)
        G = serialize.pro_object_from_json(_load(g_path), g_path)
        pm = serialize.pre_morphism_from_json(_load(input_path), F, G, input_path)
        from .factorize import check_pre_morphism
        from .procalc import is_pre_morphism, pm_leq
        if what == "pm-valid":
            payload = {"valid": is_pre_morphism(F, G, pm.alpha, pm.phi)}
        else:
            if not q_path:
                _fail("pm-leq requires a second pre-morphism via -q", EXIT_PARSE)
            second = serialize.pre_morphism_from_json(_load(q_path), F, G, q_path)
            for p in (pm, second):
                check_pre_morphism(p.alpha, [("tower", F.diagram, G.diagram, p.phi)])
            payload = {"leq": pm_leq(F, pm, second)}
    _emit(payload, output, fmt)
    sys.exit(EXIT_OK)


@main.command("suite")
@click.option("--seed", default=0, show_default=True)
@click.option("--cases", default=50, show_default=True)
@click.option("--poset-max", default=5, show_default=True)
@click.option("--set-max", default=4, show_default=True)
@out_option
@fmt_option
def suite_cmd(seed: int, cases: int, poset_max: int, set_max: int, output: str | None, fmt: str) -> None:
    """Run the randomized law suite across all modules."""
    if cases < 0:
        _fail(f"--cases must be a non-negative integer, got {cases}", EXIT_PARSE)
    for option, value in (("--poset-max", poset_max), ("--set-max", set_max)):
        if value < 1:
            _fail(f"{option} must be a positive integer, got {value}", EXIT_PARSE)
    from .report import property_suite
    report = property_suite(seed=seed, cases=cases, poset_max=poset_max, set_max=set_max)
    _emit(report, output, fmt)
    sys.exit(EXIT_OK if report["all_pass"] else EXIT_VERIFICATION)


if __name__ == "__main__":
    main()
