"""Project invariant linter: conventions the type checker cannot see.

The rules here encode project-wide contracts that hold the repo together
but live below the level of types:

* ``PL-METRIC`` — every metric registered through the
  :mod:`repro.obs.metrics` registry is named ``repro_*`` so dashboards can
  select the whole family with one prefix match.
* ``PL-RAISE`` — errors raised by library code come from the
  :mod:`repro.errors` taxonomy, never bare builtins, so callers can catch
  ``ReproError`` and the resilience layer can classify transience.
* ``PL-EXCEPT`` / ``PL-BROAD-EXCEPT`` — no bare ``except:``; catching
  ``Exception`` wholesale is allowed only at documented crash-isolation
  boundaries (suppressed explicitly there).
* ``PL-ATOMIC`` — on-disk state is written with the temp-file +
  :func:`os.replace` rotate idiom (:func:`repro.util.io.atomic_write_text`
  and friends) so a crash mid-write never leaves a truncated file.
* ``PL-TIME`` — plan-replayed code paths (the simulator, the kernels, the
  plan cache) never consult wall-clock time or ambient randomness: a
  cached plan replayed tomorrow must behave exactly like the recording.

Rules are pluggable: subclass :class:`Rule`, decorate with
:func:`register_rule`, and the driver picks it up.  Every rule respects the
same ``# repro: ignore[RULE-ID]`` suppression comments the kernel analyzer
uses (on the finding's line or the enclosing ``def`` line).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .findings import Finding, Severity
from .kernels import parse_suppressions

#: Metric names must match this (enforced by PL-METRIC).
METRIC_NAME_RE = re.compile(r"^repro_[a-z0-9_]+$")

#: Builtin exception types library code must not raise (PL-RAISE).
BUILTIN_RAISES = {
    "ValueError", "TypeError", "KeyError", "IndexError", "RuntimeError",
    "OSError", "IOError", "Exception", "BaseException", "ArithmeticError",
}

#: Module paths (relative to the package root) that capture plans by dry
#: run or replay them, and therefore must be deterministic (PL-TIME).
REPLAYED_PREFIXES = ("simgpu/", "kernels/", "cl/", "core/plan.py",
                     "core/pipeline.py", "core/transfer.py",
                     "core/heuristics.py", "core/fusion.py",
                     "core/metrics.py", "core/bufferpool.py",
                     "cpu/cost.py", "algo/strips.py", "algo/stages.py")

#: Calls that read the wall clock or ambient randomness.
_CLOCK_CALLS = {
    ("time", "time"), ("time", "monotonic"), ("time", "perf_counter"),
    ("time", "process_time"), ("time", "time_ns"),
    ("time", "monotonic_ns"), ("datetime", "now"), ("datetime", "utcnow"),
}
_RANDOM_MODULES = {"random"}


@dataclass
class LintContext:
    """Everything a rule needs to inspect one file."""

    path: Path
    #: path relative to the ``repro`` package root (``util/io.py``).
    rel: str
    source: str
    tree: ast.Module

    def str_constants(self) -> dict[str, str]:
        """Module-level ``NAME = "literal"`` string constants."""
        out: dict[str, str] = {}
        for node in self.tree.body:
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        out[t.id] = node.value.value
        return out

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        """The innermost function whose span contains ``node``."""
        best: ast.AST | None = None
        lineno = getattr(node, "lineno", None)
        if lineno is None:
            return None
        for fn in ast.walk(self.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.lineno <= lineno <= (fn.end_lineno or fn.lineno):
                if best is None or fn.lineno > best.lineno:  # type: ignore[attr-defined]
                    best = fn
        return best


class Rule:
    """Base class for linter rules."""

    rule_id: str = ""
    severity: Severity = Severity.WARNING

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST,
                message: str, *, scope: str | None = None,
                severity: Severity | None = None) -> Finding:
        if scope is None:
            fn = ctx.enclosing_function(node)
            scope = getattr(fn, "name", "<module>") if fn else "<module>"
        return Finding(
            rule=self.rule_id,
            severity=self.severity if severity is None else severity,
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            scope=scope,
            message=message,
        )


RULES: list[type[Rule]] = []


def register_rule(cls: type[Rule]) -> type[Rule]:
    RULES.append(cls)
    return cls


@register_rule
class MetricNameRule(Rule):
    """Metric families registered via ``.counter/.gauge/.histogram`` must
    be named ``repro_*``."""

    rule_id = "PL-METRIC"
    severity = Severity.ERROR

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        consts = ctx.str_constants()
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("counter", "gauge", "histogram")
                    and node.args):
                continue
            arg = node.args[0]
            name: str | None = None
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                name = arg.value
            elif isinstance(arg, ast.Name):
                name = consts.get(arg.id)
            if name is None:
                continue  # dynamic name: nothing to prove
            if not METRIC_NAME_RE.match(name):
                yield self.finding(
                    ctx, node,
                    f"metric {name!r} does not match the repro_* naming "
                    f"convention (pattern {METRIC_NAME_RE.pattern})",
                )


@register_rule
class RaiseTaxonomyRule(Rule):
    """Library raises must come from the ``repro.errors`` taxonomy."""

    rule_id = "PL-RAISE"
    severity = Severity.ERROR

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            target = exc.func if isinstance(exc, ast.Call) else exc
            if (isinstance(target, ast.Name)
                    and target.id in BUILTIN_RAISES):
                yield self.finding(
                    ctx, node,
                    f"raises builtin {target.id}; use the repro.errors "
                    f"taxonomy (e.g. ValidationError, UsageError) so "
                    f"callers can catch ReproError",
                )


@register_rule
class BareExceptRule(Rule):
    """``except:`` swallows KeyboardInterrupt and SystemExit."""

    rule_id = "PL-EXCEPT"
    severity = Severity.ERROR

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx, node,
                    "bare 'except:'; catch a ReproError subclass, or "
                    "'Exception' at a documented crash boundary",
                )


@register_rule
class BroadExceptRule(Rule):
    """Catching Exception wholesale needs an explicit justification."""

    rule_id = "PL-BROAD-EXCEPT"
    severity = Severity.WARNING

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if (isinstance(node.type, ast.Name)
                    and node.type.id in ("Exception", "BaseException")):
                yield self.finding(
                    ctx, node,
                    f"catches {node.type.id}; narrow it to the expected "
                    f"ReproError subtree, or suppress at a documented "
                    f"crash-isolation boundary",
                )


@register_rule
class AtomicWriteRule(Rule):
    """Truncating writes must use the temp-file + os.replace rotate."""

    rule_id = "PL-ATOMIC"
    severity = Severity.ERROR

    @staticmethod
    def _is_write_mode(node: ast.Call) -> bool:
        mode = None
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            mode = node.args[1].value
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                mode = kw.value.value
        return isinstance(mode, str) and "w" in mode

    @staticmethod
    def _has_replace(scope: ast.AST | None) -> bool:
        if scope is None:
            return False
        for sub in ast.walk(scope):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "replace"
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == "os"):
                return True
        return False

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            is_open = (isinstance(node, ast.Call)
                       and isinstance(node.func, ast.Name)
                       and node.func.id == "open")
            is_write_text = (isinstance(node, ast.Call)
                             and isinstance(node.func, ast.Attribute)
                             and node.func.attr in ("write_text",
                                                    "write_bytes"))
            if is_open and not self._is_write_mode(node):
                continue
            if not (is_open or is_write_text):
                continue
            scope = ctx.enclosing_function(node)
            if self._has_replace(scope if scope is not None else ctx.tree):
                continue
            yield self.finding(
                ctx, node,
                "truncating write without an atomic rotate; write a "
                "sibling temp file and os.replace() it into place "
                "(repro.util.io.atomic_write_text/atomic_write_bytes)",
            )


@register_rule
class DeterministicReplayRule(Rule):
    """Plan-replayed paths must not consult clocks or randomness."""

    rule_id = "PL-TIME"
    severity = Severity.ERROR

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not any(ctx.rel.startswith(p) for p in REPLAYED_PREFIXES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            base = node.value
            if not isinstance(base, ast.Name):
                continue
            if (base.id, node.attr) in _CLOCK_CALLS:
                yield self.finding(
                    ctx, node,
                    f"{base.id}.{node.attr} in a plan-replayed path; "
                    f"replaying a cached plan must be deterministic — "
                    f"take timestamps from the caller",
                )
            elif base.id in _RANDOM_MODULES:
                yield self.finding(
                    ctx, node,
                    f"ambient randomness ({base.id}.{node.attr}) in a "
                    f"plan-replayed path; thread an explicit seeded "
                    f"Generator through instead",
                )


def lint_file(path: Path, *, package_root: Path) -> list[Finding]:
    """Run every registered rule over one file."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(
            rule="PL-PARSE", severity=Severity.ERROR, path=str(path),
            line=exc.lineno or 1, scope="<module>",
            message=f"syntax error: {exc.msg}",
        )]
    try:
        rel = path.relative_to(package_root).as_posix()
    except ValueError:
        rel = path.name
    ctx = LintContext(path=path, rel=rel, source=source, tree=tree)
    suppressions = parse_suppressions(source)
    spans = [
        (fn.lineno, fn.end_lineno or fn.lineno)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]

    def suppressed(f: Finding) -> bool:
        lines = {f.line}
        lines.update(lo for lo, hi in spans if lo <= f.line <= hi)
        for line in lines:
            if line in suppressions:
                rules = suppressions[line]
                if rules is None or f.rule in rules:
                    return True
        return False

    findings: list[Finding] = []
    for rule_cls in RULES:
        findings.extend(rule_cls().check(ctx))
    findings = [f for f in findings if not suppressed(f)]
    findings.sort(key=lambda f: (f.line, f.rule, f.message))
    return findings


def lint_paths(paths: Iterable[Path], *,
               package_root: Path) -> list[Finding]:
    out: list[Finding] = []
    for path in sorted(paths):
        out.extend(lint_file(path, package_root=package_root))
    return out
