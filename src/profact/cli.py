"""Command line interface: factorization, middle-map construction, lifting,
tower building, pre-morphism merging, structure checks and the property
suite.

Exit codes: 0 success, 1 verification failure, 2 search or budget
exhausted, 3 parse error or a file that cannot be read or written.

Each command imports the construction modules it runs, so a call loads
only those, serialize, base and poset.  The command line is read from one
table, `_COMMANDS`, with click's syntax and click's usage error lines.
"""

from __future__ import annotations

import json
import os
import sys

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
        _write(text, sys.stdout)


def _write(text: str, stream) -> None:
    """Write text as UTF-8 whatever the locale, as click.echo did, or as str
    to a stream with no buffer, such as a StringIO.  An argument's bytes
    that the locale could not decode go back out as they came."""
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        stream.write(text)
        return
    try:
        data = text.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError:
        data = text.encode("utf-8", stream.errors)
    stream.flush()
    buffer.write(data)
    buffer.flush()


def _fail(message: str, code: int) -> None:
    _write(f"error: {message}\n", sys.stderr)
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


class UsageError(Exception):
    """A command line that `_COMMANDS` does not accept; the message is the
    line click gave it."""


# the one place a library or usage error becomes an exit code, with its
# message as the error line.  Errors are named, not imported, since a
# command loads only its own modules; no error here subclasses another.
# A usage error is malformed input, not the code 2 that click gave it, and
# is named by this module's own name, which is __main__ under `python -m`
_EXIT_CODES: dict[str, int] = {
    f"{__name__}.UsageError": EXIT_PARSE,
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


def reedy_cmd(input_path: str) -> tuple[dict, bool]:
    """Factor a transformation into levelwise-injective then special-surjective."""
    nt = serialize.nattrans_from_json(_load(input_path), input_path)
    from .factorize import reedy
    rf = reedy(nt)
    return serialize.reedy_to_json(rf), all(rf.report.values())


def chi_cmd(f_path: str, t_path: str, pm_path: str) -> tuple[dict, bool]:
    """Build the middle map induced by an arrow-level pre-morphism."""
    f = serialize.nattrans_from_json(_load(f_path), f_path)
    t = serialize.nattrans_from_json(_load(t_path), t_path)
    pm = serialize.arrow_pre_morphism_from_json(_load(pm_path), f, t, pm_path)
    from .factorize import chi_construct, reedy, verify_chi
    rf_f, rf_t = reedy(f), reedy(t)
    chim = chi_construct(pm, rf_f, rf_t)
    verification = verify_chi(chim, pm, rf_f, rf_t)
    return serialize.chi_to_json(chim, verification), all(verification.values())


def lift_cmd(input_path: str) -> tuple[dict, bool]:
    """Solve a lifting problem against a special surjective transformation."""
    problem = serialize.lifting_problem_from_json(_load(input_path), input_path)
    from .lifting import lift_against_special
    cone = lift_against_special(problem)
    verification = cone.verify(problem)
    return serialize.cone_lift_to_json(cone, verification), all(verification.values())


def cofinalize_cmd(input_path: str, levels: int, reysha_cap: int) -> tuple[dict, bool]:
    """Build the level tower over a directed category and verify it."""
    # checked here rather than in the table, so the line says what the option must be
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
    ok = all(verification.values()) and all(r.nonempty for r in reports)
    return serialize.tower_to_json(tower, verification, reports, directed), ok


def merge_cmd(f_path: str, g_path: str, p_path: str, q_path: str) -> tuple[dict, bool]:
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
    report = {"dominates_first": pm_leq(F, p, r), "dominates_second": pm_leq(F, q, r)}
    return {"result": serialize.pre_morphism_to_json(r), "report": report}, all(report.values())


def check_cmd(
    what: str, input_path: str, cls: str | None, f_path: str | None, g_path: str | None, q_path: str | None
) -> tuple[dict, bool]:
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
    return payload, True


def suite_cmd(seed: int, cases: int, poset_max: int, set_max: int) -> tuple[dict, bool]:
    """Run the randomized law suite across all modules."""
    if cases < 0:
        _fail(f"--cases must be a non-negative integer, got {cases}", EXIT_PARSE)
    for option, value in (("--poset-max", poset_max), ("--set-max", set_max)):
        if value < 1:
            _fail(f"{option} must be a positive integer, got {value}", EXIT_PARSE)
    from .report import property_suite
    report = property_suite(seed=seed, cases=cases, poset_max=poset_max, set_max=set_max)
    return report, report["all_pass"]


# a parameter is (flags, dest, kind, default, help): kind is str, int or a
# tuple of choices, an argument has no flags, and a required parameter has
# _REQUIRED as its default
_REQUIRED = object()


def _param(flags: str, dest: str, kind=str, default=None, help: str = "") -> tuple:
    return tuple(flags.split()), dest, kind, default, help


_INPUT = _param("", "input_path", default=_REQUIRED)
_CHECKS = ("directed-category", "directed-poset", "levelwise", "special", "pm-valid", "pm-leq")

# each command's function and parameters, in click's order, which orders
# --help and the checks; parsing, --help and every usage error read them here
_COMMANDS: dict[str, tuple] = {
    "reedy": (reedy_cmd, [_INPUT]),
    "chi": (chi_cmd, [
        _param("-f --source-arrow", "f_path", default=_REQUIRED),
        _param("-t --target-arrow", "t_path", default=_REQUIRED),
        _param("-p --pre-morphism", "pm_path", default=_REQUIRED),
    ]),
    "lift": (lift_cmd, [_INPUT]),
    "cofinalize": (cofinalize_cmd, [
        _INPUT,
        _param("--levels", "levels", int, 2),
        _param("--reysha-cap", "reysha_cap", int, 3),
    ]),
    "merge": (merge_cmd, [
        _param("-F --source-tower", "f_path", default=_REQUIRED),
        _param("-G --target-tower", "g_path", default=_REQUIRED),
        _param("-p --first", "p_path", default=_REQUIRED),
        _param("-q --second", "q_path", default=_REQUIRED),
    ]),
    "check": (check_cmd, [
        _param("", "what", _CHECKS, _REQUIRED),
        _INPUT,
        _param("--cls", "cls", tuple(CLASSES), help="Morphism class for levelwise/special checks."),
        _param("-F --source-tower", "f_path"),
        _param("-G --target-tower", "g_path"),
        _param("-q --second", "q_path", help="Second pre-morphism for pm-leq."),
    ]),
    "suite": (suite_cmd, [
        _param("--seed", "seed", int, 0),
        _param("--cases", "cases", int, 50),
        _param("--poset-max", "poset_max", int, 5),
        _param("--set-max", "set_max", int, 4),
    ]),
}
# every command writes its report the same way
for _, _params in _COMMANDS.values():
    _params += [
        _param("-o --output", "output", help="Write the report to a file."),
        _param("--format", "fmt", ("json", "text"), "json"),
    ]


def _no_such(what: str, name: str, known) -> UsageError:
    """click's line for an unknown option or command, with its close matches."""
    from difflib import get_close_matches
    matches = sorted(get_close_matches(name, known))
    listed = ", ".join(map(repr, matches))
    if len(matches) > 1:
        listed = f" (Did you mean one of: {listed}?)"
    elif matches:
        listed = f" Did you mean {listed}?"
    return UsageError(f"No such {what} {name!r}.{listed}")


def _read(params: list[tuple], args: list[str], interspersed: bool = True) -> tuple[dict, list[str]]:
    """The values given for params, by dest in the order first given, with
    "help" for --help, and the positional arguments.  It reads `--opt value`,
    `--opt=value`, `-oVALUE` and `--` as click did; unless interspersed, the
    first positional argument ends the options."""
    dests = {flag: dest for flags, dest, *_ in params for flag in flags}
    dests["--help"] = "help"
    values, positional, rest = {}, [], list(args)
    while rest and rest[0] != "--":
        if not rest[0].startswith("-") or rest[0] == "-":
            if not interspersed:
                break
            positional.append(rest.pop(0))
            continue
        arg = rest.pop(0)
        flag, equals, value = arg.partition("=") if arg.startswith("--") else (arg[:2], "", arg[2:])
        if flag not in dests:
            # click offers only long options, and only for a long one
            raise _no_such("option", flag, [known for known in dests if known[:2] == flag[:2] == "--"])
        if flag == "--help" and equals:
            raise UsageError("Option '--help' does not take a value.")
        if flag != "--help" and not (equals or value):
            if not rest:
                raise UsageError(f"Option {flag!r} requires an argument.")
            value = rest.pop(0)
        values[dests[flag]] = value
    if rest[:1] == ["--"]:
        rest.pop(0)
    return values, positional + rest


def _metavar(param: tuple) -> str:
    """click's name for a parameter's value, in --help and usage errors."""
    flags, dest, kind = param[:3]
    if isinstance(kind, tuple):
        return f"[{'|'.join(kind)}]" if flags else f"{{{'|'.join(kind)}}}"
    return ("INTEGER" if kind is int else "TEXT") if flags else dest.upper()


def _convert(params: list[tuple], values: dict, positional: list[str]) -> dict:
    """The command's keyword arguments.  As in click, the options given are
    checked first, in the order given, then the arguments, then the other
    options, and extra arguments are refused last."""
    order = {dest: i for i, dest in enumerate(values)}
    arguments = [param for param in params if not param[0]]
    values = {**values, **dict(zip((dest for _, dest, *_ in arguments), positional))}
    kwargs = {}
    for param in sorted(params, key=lambda param: order.get(param[1], len(order) + bool(param[0]))):
        flags, dest, kind, default, _ = param
        name = " / ".join(f"'{flag}'" for flag in flags) or f"'{_metavar(param)}'"
        value = kwargs[dest] = values.get(dest, default)
        if value is _REQUIRED:
            choices = " Choose from:\n\t" + ",\n\t".join(kind) if isinstance(kind, tuple) else ""
            raise UsageError(f"Missing {'option' if flags else 'argument'} {name}.{choices}")
        if dest in values and kind is int:
            try:
                kwargs[dest] = int(value)
            except ValueError:
                raise UsageError(f"Invalid value for {name}: {value!r} is not a valid integer.") from None
        elif dest in values and isinstance(kind, tuple) and value not in kind:
            raise UsageError(f"Invalid value for {name}: {value!r} is not one of {', '.join(map(repr, kind))}.")
    extra = positional[len(arguments):]
    if extra:
        raise UsageError(f"Got unexpected extra argument{'s' * (len(extra) > 1)} ({' '.join(extra)})")
    return kwargs


def _help(prog_name: str, name: str | None) -> str:
    """The --help text of a command, or of the group when name is None."""
    func, params = _COMMANDS[name] if name else (main, [])
    usage = f"{name} [OPTIONS]" if name else "[OPTIONS] COMMAND [ARGS]..."
    usage += "".join(f" {_metavar(param)}" for param in params if not param[0])
    rows = []
    for param in params:
        flags, _, kind, default, help = param
        if flags:
            notes = [help, "[required]" if default is _REQUIRED else "", f"[default: {default}]" if kind is int else ""]
            rows.append((f"{', '.join(flags)} {_metavar(param)}", "  ".join(filter(None, notes))))
    rows.append(("--help", "Show this message and exit."))
    width = max(len(left) for left, _ in rows) + 2
    lines = [f"Usage: {prog_name} {usage}", "", *(f"  {line.strip()}" for line in func.__doc__.splitlines())]
    lines += ["", "Options:", *(f"  {left:{width}}{right}" for left, right in rows)]
    if not name:
        from textwrap import shorten
        # as in click, the names fill 12 columns, and each description is
        # cut to the 62 left of the 78 that click gave an 80-column terminal
        lines += ["", "Commands:"]
        for command in sorted(_COMMANDS):
            lines.append(f"  {command:12}{shorten(_COMMANDS[command][0].__doc__, 62, placeholder='...')}")
    return "".join(line.rstrip() + "\n" for line in lines)


def main(args: list[str] | None = None, prog_name: str = "profact") -> None:
    """Reedy factorizations over finite posets and their pro-level calculus."""
    args = sys.argv[1:] if args is None else list(args)
    try:
        if not args:
            # as in click, a bare call is a usage error whose line is the help
            raise UsageError(_help(prog_name, None).rstrip("\n"))
        values, rest = _read([], args, interspersed=False)
        name = rest[0] if rest and "help" not in values else None
        if name in _COMMANDS:
            values, rest = _read(_COMMANDS[name][1], rest[1:])
        elif name is not None:
            if name.startswith("-"):
                # as in click, a name that looks like an option, as one
                # after -- does, is read again as the group's options
                values, rest = _read([], rest, interspersed=False)
            if "help" not in values:
                raise _no_such("command", name, _COMMANDS)
            name = None
        if "help" in values:
            _write(_help(prog_name, name), sys.stdout)
            sys.exit(EXIT_OK)
        if name is None:
            raise UsageError("Missing command.")
        func, params = _COMMANDS[name]
        kwargs = _convert(params, values, rest)
        output, fmt = kwargs.pop("output"), kwargs.pop("fmt")
        payload, ok = func(**kwargs)
        _emit(payload, output, fmt)
        sys.exit(EXIT_OK if ok else EXIT_VERIFICATION)
    except BrokenPipeError:
        # as in click: the reader of stdout has gone, so end with code 1,
        # and leave the interpreter no stdout to flush at exit
        sys.stdout = None
        sys.exit(1)
    except KeyboardInterrupt:
        _write("\nAborted!\n", sys.stderr)
        sys.exit(1)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        _fail(str(exc), code)


# perfbench/launch.py runs a command in its own process as it ran click's
# group: main.main(args=..., prog_name=..., standalone_mode=False)
main.main = lambda args, prog_name, standalone_mode: main(args, prog_name)

if __name__ == "__main__":
    main(prog_name="python -m profact.cli")
