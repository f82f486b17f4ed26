#!/usr/bin/env python3
"""Census of the defaulted keyword options of ``src/killinglab``.

Lists every parameter with a default of every function and method defined in
``src/killinglab`` and, for each, which of the trees ``src``, ``scripts``,
``tests`` and ``perfbench`` hold a call that sets it: by keyword, or by
position.  Calls are matched by the called name (``f(...)`` or
``obj.f(...)``); a class's ``__init__`` is matched by the class name, a
method other than a staticmethod called through an attribute binds its
first parameter, and a call that spreads ``**kwargs`` sets every option of
the callee.  Other dunder methods
(``SpherePoint.__array__``, say) are protocol hooks that Python calls, and
are left out.  Matching by name is an over-approximation: an option counts as
set if any same-named callable anywhere is called with it.

Usage:
    python3 scripts/option_census.py [--unset]

It prints one line per option, ``module.function(option) set by: trees``,
and the totals.  With ``--unset`` it prints only the options no call sets,
and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import sys
from dataclasses import dataclass, field

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "killinglab"
TREES = ("src", "scripts", "tests", "perfbench")


@dataclass
class Option:
    module: str
    owner: str            # the function, or Class.method
    callee: str           # the name a call uses: the function, method or class
    name: str
    position: int | None  # index among the parameters, None if keyword-only
    is_method: bool       # its first parameter is bound (self or cls)
    set_by: set[str] = field(default_factory=set)

    @property
    def label(self) -> str:
        return f"{self.module}.{self.owner}({self.name})"


def _options_of(fn: ast.FunctionDef, module: str, owner: str, callee: str,
                is_method: bool) -> list[Option]:
    args = fn.args
    positional = args.posonlyargs + args.args
    out = [Option(module, owner, callee, a.arg, i, is_method)
           for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)]
    out += [Option(module, owner, callee, a.arg, None, is_method)
            for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def collect_options(package: pathlib.Path = PACKAGE) -> list[Option]:
    """Every defaulted parameter of a module-level function or a method."""
    options: list[Option] = []
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                options += _options_of(node, module, node.name, node.name, False)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if item.name == "__init__":
                        callee = node.name
                    elif item.name.startswith("__") and item.name.endswith("__"):
                        continue  # a protocol hook, called by Python
                    else:
                        callee = item.name
                    static = any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
                                 for dec in item.decorator_list)
                    options += _options_of(item, module, f"{node.name}.{item.name}",
                                           callee, not static)
    return options


def _called_name(call: ast.Call) -> tuple[str | None, bool]:
    """The name a call uses, and whether it goes through an attribute."""
    if isinstance(call.func, ast.Name):
        return call.func.id, False
    if isinstance(call.func, ast.Attribute):
        return call.func.attr, True
    return None, False


def mark_callers(options: list[Option], root: pathlib.Path = ROOT) -> None:
    """Record in each option's ``set_by`` the trees whose calls set it."""
    by_callee: dict[str, list[Option]] = {}
    for opt in options:
        by_callee.setdefault(opt.callee, []).append(opt)
    for tree in TREES:
        for path in sorted((root / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                name, through_attr = _called_name(node)
                for opt in by_callee.get(name, ()):
                    if _sets(node, opt, through_attr):
                        opt.set_by.add(tree)


def _sets(call: ast.Call, opt: Option, through_attr: bool) -> bool:
    if any(kw.arg is None or kw.arg == opt.name for kw in call.keywords):
        return True
    if opt.position is None:
        return False
    # an instance method called through an attribute has self bound already;
    # a class called by name binds self to the new instance
    bound = 1 if opt.is_method and (through_attr or opt.owner.endswith(".__init__")) else 0
    n_positional = sum(1 for a in call.args if not isinstance(a, ast.Starred))
    return any(isinstance(a, ast.Starred) for a in call.args) \
        or opt.position - bound < n_positional


def census() -> list[Option]:
    options = collect_options()
    mark_callers(options)
    return options


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--unset", action="store_true",
                    help="print only the options no call sets; exit 1 if any")
    opts = ap.parse_args(argv)
    options = census()
    unset = [o for o in options if not o.set_by]
    for opt in unset if opts.unset else options:
        print(f"{opt.label} set by: {', '.join(t for t in TREES if t in opt.set_by) or '-'}")
    print(f"{len(options)} defaulted keyword options, {len(unset)} set by no call")
    return 1 if opts.unset and unset else 0


if __name__ == "__main__":
    sys.exit(main())
